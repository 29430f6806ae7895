// Soak: exec-threads holds no state that grows with the stream. Every task
// is named by one of the Task Pool's slots, so a 10^7-task run must finish
// in the memory a 10^5-task run needed, and a 10^6-task run must still
// complete in an order core::GraphOracle accepts.
//
// The stream is generated task by task as the master pulls it (the shape
// of perfbench's fine-stream: 48 addresses, 1-6 parameters, half of them
// writes), so the test itself holds nothing per task either. Registered
// with the ctest label `soak`; the sanitizer and schedule-exploration CI
// jobs leave it out (`-LE soak`).

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "exec/executor.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace nexuspp {
namespace {

/// A fine-task stream drawn on demand from `seed`: the same seed always
/// yields the same tasks.
class LazyFineStream final : public trace::TaskStream {
 public:
  static constexpr std::uint32_t kAddresses = 48;
  static constexpr std::uint32_t kMaxParams = 6;

  LazyFineStream(std::uint64_t tasks, std::uint64_t seed)
      : tasks_(tasks), rng_(seed) {
    for (std::uint32_t i = 0; i < kAddresses; ++i) slots_[i] = i;
  }

  std::optional<trace::TaskRecord> next() override {
    if (next_ == tasks_) return std::nullopt;
    trace::TaskRecord rec;
    rec.serial = next_++;
    rec.exec_time = sim::ns(100);
    // Partial Fisher-Yates: the first `n` slots are distinct addresses.
    const auto n = static_cast<std::uint32_t>(1 + rng_.below(kMaxParams));
    rec.params.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto j =
          i + static_cast<std::uint32_t>(rng_.below(kAddresses - i));
      std::swap(slots_[i], slots_[j]);
      core::Param p{0x9000'0000 + core::Addr{slots_[i]} * 64, 64,
                    core::AccessMode::kIn};
      if (rng_.chance(0.5)) {
        p.mode = rng_.chance(0.5) ? core::AccessMode::kOut
                                  : core::AccessMode::kInOut;
      }
      rec.params.push_back(p);
    }
    return rec;
  }

  [[nodiscard]] std::uint64_t total_tasks() const override { return tasks_; }

 private:
  std::uint64_t tasks_;
  std::uint64_t next_ = 0;
  util::Rng rng_;
  std::array<std::uint32_t, kAddresses> slots_{};
};

exec::ExecConfig soak_config() {
  exec::ExecConfig cfg;
  cfg.threads = 2;
  cfg.duration_scale = 0.0;  // protocol only: the master is the bottleneck
  return cfg;
}

exec::ExecReport run(std::uint64_t tasks, std::uint64_t seed,
                     core::ExecutionObserver* observer = nullptr) {
  exec::ExecConfig cfg = soak_config();
  cfg.observer = observer;
  exec::ThreadedExecutor executor(cfg);
  return executor.run(std::make_unique<LazyFineStream>(tasks, seed));
}

/// Peak resident set of this process so far, in KiB.
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(ExecSoak, PeakMemoryDoesNotGrowWithTheStream) {
  // Runs first in this binary: the oracle run below holds more memory.
  const exec::ExecReport small = run(100'000, 1);
  ASSERT_FALSE(small.deadlocked) << small.diagnosis;
  ASSERT_EQ(small.tasks_completed, 100'000u);
  const long after_small = peak_rss_kib();

  const exec::ExecReport large = run(10'000'000, 2);
  ASSERT_FALSE(large.deadlocked) << large.diagnosis;
  EXPECT_EQ(large.tasks_completed, 10'000'000u);
  EXPECT_TRUE(large.diagnosis.empty()) << large.diagnosis;
  const long after_large = peak_rss_kib();

  std::cout << "peak RSS after 10^5 tasks: " << after_small
            << " KiB, after 10^7 tasks: " << after_large << " KiB\n";
  EXPECT_LE(after_large, after_small + after_small / 10)
      << "peak RSS grew with the stream: " << after_small << " KiB after "
      << "10^5 tasks, " << after_large << " KiB after 10^7";
}

TEST(ExecSoak, MillionTaskCompletionOrderIsOracleValid) {
  constexpr std::uint64_t kTasks = 1'000'000;
  constexpr std::uint64_t kSeed = 3;
  core::CompletionRecorder recorder;
  const exec::ExecReport report = run(kTasks, kSeed, &recorder);
  ASSERT_FALSE(report.deadlocked) << report.diagnosis;
  ASSERT_EQ(report.tasks_completed, kTasks);
  const std::vector<std::uint64_t> order = recorder.order();
  ASSERT_EQ(order.size(), kTasks);

  // Replay the recorded order through the oracle, regenerating the stream
  // as it goes. A task completes only after the executor registered every
  // earlier one, so submitting tasks up to the one completing is enough:
  // later tasks cannot be its predecessors. The oracle then holds only the
  // tasks the executor had in flight, not the whole stream.
  core::GraphOracle oracle(soak_config().match_mode);
  LazyFineStream regenerated(kTasks, kSeed);
  std::unordered_set<std::uint64_t> ready;
  std::uint64_t submitted = 0;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::uint64_t task = order[pos];
    ASSERT_LT(task, kTasks);
    for (; submitted <= task; ++submitted) {
      const std::optional<trace::TaskRecord> rec = regenerated.next();
      ASSERT_TRUE(rec.has_value());
      if (oracle.submit(submitted, rec->params)) ready.insert(submitted);
    }
    ASSERT_EQ(ready.erase(task), 1u)
        << "task " << task << " completed at position " << pos
        << " before all of its dependencies had completed, or twice";
    for (const std::uint64_t granted : oracle.finish(task)) {
      ready.insert(granted);
    }
  }
  EXPECT_EQ(submitted, kTasks);
  EXPECT_TRUE(ready.empty());
}

}  // namespace
}  // namespace nexuspp
