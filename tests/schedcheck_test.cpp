// Layer-5 correctness tooling tests (docs/CORRECTNESS.md): the schedule
// explorer, the happens-before race checker, and the compiled-in mutant
// that proves the pair catches a publication race in the executor's run
// queue.
//
// Built without NEXUSPP_SCHEDCHECK the suite pins the zero-cost contract
// (the chk:: wrappers ARE the std primitives) and skips everything else.
// Built with it:
//   * RaceChecker unit tests drive hand-built event sequences with
//     explicit thread ids and assert exact verdicts (race kind, dedup) —
//     the checker is pure logic over those ids.
//   * ScheduleController tests pin determinism (same seed -> same trace),
//     seed sensitivity, and the deadlock / step-limit diagnoses.
//   * Workload sweeps run TaskHandoff over a seed set, once with room to
//     spare and once at its in-flight bound so both rings wrap, and demand
//     completion, every task claimed and drained exactly once, and zero
//     race reports. A third runs the exec::Maestro core through its own
//     worker loop at two slots, forcing slot and table stalls, and checks
//     each task runs and is released once, in an oracle-valid order; a
//     fourth drives the core as starss::Runtime::submit does, releasing
//     only while a registered task waits for a grant; a fifth gives the
//     core one worker and a master that runs ready tasks while it waits,
//     so the master's try_claim races the worker's claim, and checks each
//     task runs once.
//   * The mutant tests flip one chk::Faults toggle each, prove a bounded
//     schedule budget finds the bug it opens in TaskHandoff, and replay the
//     found seed to the bit-identical trace and report signature:
//     publish_ready_tail_early (the ready tail published before the slot
//     stores), read_ready_slot_after_claim (a claimer reading its ring
//     slot after the CAS, when the master may already have reused it) and
//     publish_completion_stamp_early (a completion entry's stamp stored
//     before its id, so the master can drain an unwritten id).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <type_traits>

#include "chk/chk.hpp"

#if !defined(NEXUSPP_SCHEDCHECK)

namespace nexuspp {
namespace {

// The OFF contract: aliases, not wrappers — pointer-identical layout and
// codegen with the uninstrumented build, by construction.
static_assert(std::is_same_v<chk::Atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<chk::Atomic<std::uint64_t>,
                             std::atomic<std::uint64_t>>);
static_assert(std::is_same_v<chk::Mutex, std::mutex>);
static_assert(std::is_same_v<chk::CondVar, std::condition_variable>);
// The fault toggle folds to constant false (dead mutant branches).
static_assert(!chk::Faults::publish_ready_tail_early());
static_assert(!chk::Faults::publish_completion_stamp_early());
static_assert(chk::schedule_thread_id() == chk::kNoScheduleThread);

TEST(SchedCheck, RequiresSchedcheckBuild) {
  GTEST_SKIP() << "built without NEXUSPP_SCHEDCHECK; configure with "
                  "-DNEXUSPP_SCHEDCHECK=ON to run schedule exploration";
}

}  // namespace
}  // namespace nexuspp

#else  // NEXUSPP_SCHEDCHECK

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chk/controller.hpp"
#include "chk/race_checker.hpp"
#include "chk/session.hpp"
#include "core/oracle.hpp"
#include "exec/handoff.hpp"
#include "exec/maestro.hpp"

namespace nexuspp {
namespace {

using chk::OpKind;
using chk::RaceChecker;
using chk::RaceReport;
using chk::SchedulePolicy;
using chk::ScheduleController;
using chk::ScheduleOutcome;
using chk::TraceEntry;

constexpr const char* kFile = "unit";

// --- RaceChecker: hand-built event sequences ---------------------------------

TEST(RaceChecker, UnsynchronizedWritesRace) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteWrite);
  EXPECT_EQ(checker.reports()[0].prior.line, 1u);
  EXPECT_EQ(checker.reports()[0].current.line, 2u);
}

TEST(RaceChecker, WriteThenUnorderedReadRaces) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, false, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteRead);
}

TEST(RaceChecker, ReadThenUnorderedWriteRaces) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, false, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kReadWrite);
}

TEST(RaceChecker, ConcurrentReadsDoNotRace) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, false, kFile, 1);
  checker.on_plain(1, &a, false, kFile, 2);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, ReleaseAcquireEdgeOrdersAccesses) {
  RaceChecker checker;
  int a = 0;
  int flag = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_release(0, &flag, OpKind::kAtomicStore, kFile, 2);
  checker.on_acquire(1, &flag, OpKind::kAtomicLoad, kFile, 3);
  checker.on_plain(1, &a, true, kFile, 4);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, EdgeOnDifferentAddressDoesNotOrder) {
  RaceChecker checker;
  int a = 0;
  int flag = 0;
  int other = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_release(0, &flag, OpKind::kAtomicStore, kFile, 2);
  checker.on_acquire(1, &other, OpKind::kAtomicLoad, kFile, 3);
  checker.on_plain(1, &a, true, kFile, 4);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteWrite);
}

TEST(RaceChecker, MutexCriticalSectionsOrderAccesses) {
  RaceChecker checker;
  int a = 0;
  int m = 0;
  checker.on_mutex_acquire(0, &m, kFile, 1);
  checker.on_plain(0, &a, true, kFile, 2);
  checker.on_mutex_release(0, &m, kFile, 3);
  checker.on_mutex_acquire(1, &m, kFile, 4);
  checker.on_plain(1, &a, true, kFile, 5);
  checker.on_mutex_release(1, &m, kFile, 6);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, ForkJoinClockTransferOrdersAccesses) {
  RaceChecker checker;
  int a = 0;
  std::uint64_t clock[chk::kMaxThreads] = {};
  checker.on_plain(0, &a, true, kFile, 1);
  checker.capture_clock(0, clock);  // parent captures at fork
  checker.adopt_clock(1, clock);    // child adopts before first access
  checker.on_plain(1, &a, true, kFile, 2);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, DuplicatePairReportedOnce) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  checker.on_plain(1, &a, true, kFile, 2);  // same pair again
  EXPECT_EQ(checker.reports().size(), 1u);
}

TEST(RaceChecker, ReportCarriesLocations) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, "writer.cpp", 10);
  checker.on_plain(1, &a, false, "reader.cpp", 20);
  ASSERT_EQ(checker.reports().size(), 1u);
  const std::string text = checker.reports()[0].to_string();
  EXPECT_NE(text.find("writer.cpp:10"), std::string::npos) << text;
  EXPECT_NE(text.find("reader.cpp:20"), std::string::npos) << text;
}

// --- ScheduleController: determinism and diagnoses ---------------------------

[[nodiscard]] bool traces_equal(const std::vector<TraceEntry>& a,
                                const std::vector<TraceEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_decision(b[i])) return false;
  }
  return true;
}

/// Runs one schedule of a tiny three-thread workload (atomic counter +
/// mutex-protected plain counter) and returns its trace.
std::vector<TraceEntry> run_counter_workload(const SchedulePolicy& policy) {
  chk::Atomic<std::uint64_t> counter{0};
  chk::Mutex mu;
  std::uint64_t plain = 0;
  auto body = [&] {
    for (int i = 0; i < 3; ++i) {
      counter.fetch_add(1, std::memory_order_acq_rel);
      std::lock_guard<chk::Mutex> lock(mu);
      chk::plain_write(&plain);
      ++plain;
    }
  };
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome =
      controller.run({body, body, body});
  EXPECT_TRUE(outcome.completed()) << outcome.diagnosis;
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 9u);
  EXPECT_EQ(plain, 9u);
  return controller.trace();
}

TEST(ScheduleController, SameSeedReplaysIdenticalTrace) {
  for (const auto kind :
       {SchedulePolicy::Kind::kRandomWalk, SchedulePolicy::Kind::kPct}) {
    SchedulePolicy policy;
    policy.kind = kind;
    policy.seed = 42;
    const auto first = run_counter_workload(policy);
    const auto second = run_counter_workload(policy);
    EXPECT_FALSE(first.empty());
    EXPECT_TRUE(traces_equal(first, second))
        << "replay diverged for kind=" << static_cast<int>(kind);
  }
}

TEST(ScheduleController, DifferentSeedsExploreDifferentInterleavings) {
  std::vector<std::vector<TraceEntry>> traces;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    traces.push_back(run_counter_workload(policy));
  }
  bool any_diverged = false;
  for (std::size_t i = 1; i < traces.size() && !any_diverged; ++i) {
    any_diverged = !traces_equal(traces[0], traces[i]);
  }
  EXPECT_TRUE(any_diverged)
      << "12 seeds produced one interleaving; the walk is not exploring";
}

TEST(ScheduleController, TraceTokensAreDenseAndFirstSeen) {
  SchedulePolicy policy;
  const auto trace = run_counter_workload(policy);
  ASSERT_FALSE(trace.empty());
  std::uint32_t max_token = 0;
  std::set<std::uint32_t> seen;
  for (const auto& entry : trace) {
    seen.insert(entry.addr_token);
    max_token = std::max(max_token, entry.addr_token);
  }
  // Dense: tokens 0..max all appear (first-registration numbering).
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(max_token) + 1);
  EXPECT_EQ(trace[0].addr_token, 0u);
}

TEST(ScheduleController, SelfDeadlockDiagnosed) {
  SchedulePolicy policy;
  chk::Mutex mu;
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome = controller.run({[&] {
    std::lock_guard<chk::Mutex> outer(mu);
    // Relocking the held mutex can never succeed: every live thread ends
    // up blocked with no pending write, which is exactly the deadlock
    // predicate. ScheduleAbort unwinds through lock(); the lock_guard
    // releases the outer hold.
    std::lock_guard<chk::Mutex> inner(mu);
  }});
  EXPECT_EQ(outcome.kind, ScheduleOutcome::Kind::kDeadlock);
  EXPECT_NE(outcome.diagnosis.find("deadlock"), std::string::npos)
      << outcome.diagnosis;
}

TEST(ScheduleController, AbBaDeadlockFoundAcrossSeeds) {
  int deadlocks = 0;
  int completions = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    chk::Mutex a;
    chk::Mutex b;
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, nullptr);
    const auto outcome = controller.run({
        [&] {
          std::lock_guard<chk::Mutex> la(a);
          std::lock_guard<chk::Mutex> lb(b);
        },
        [&] {
          std::lock_guard<chk::Mutex> lb(b);
          std::lock_guard<chk::Mutex> la(a);
        },
    });
    if (outcome.kind == ScheduleOutcome::Kind::kDeadlock) ++deadlocks;
    if (outcome.completed()) ++completions;
  }
  // The classic AB-BA hang depends on the interleaving: the sweep must
  // both find it and find schedules that dodge it.
  EXPECT_GT(deadlocks, 0);
  EXPECT_GT(completions, 0);
}

TEST(ScheduleController, StepLimitDiagnosed) {
  SchedulePolicy policy;
  policy.max_steps = 200;
  chk::Atomic<int> never{0};
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome = controller.run({[&] {
    while (never.load(std::memory_order_relaxed) == 0) {
    }
  }});
  EXPECT_EQ(outcome.kind, ScheduleOutcome::Kind::kStepLimit);
}

TEST(ScheduleController, SeedBannerIsReplayable) {
  SchedulePolicy policy;
  policy.seed = 1234;
  policy.kind = SchedulePolicy::Kind::kPct;
  ScheduleController controller(policy);
  const auto banner = controller.seed_banner();
  EXPECT_NE(banner.find("seed=1234"), std::string::npos) << banner;
  EXPECT_NE(banner.find("pct"), std::string::npos) << banner;
}

// --- Workload sweep: the executor's run queue, zero reports ------------------

/// Standard seed set for the sweeps: random walks plus PCT schedules.
[[nodiscard]] std::vector<SchedulePolicy> sweep_policies(
    std::uint64_t random_walks, std::uint64_t pct_schedules) {
  std::vector<SchedulePolicy> out;
  for (std::uint64_t seed = 1; seed <= random_walks; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    out.push_back(policy);
  }
  for (std::uint64_t seed = 1; seed <= pct_schedules; ++seed) {
    SchedulePolicy policy;
    policy.kind = SchedulePolicy::Kind::kPct;
    policy.seed = seed;
    policy.depth = 3;
    policy.expected_steps = 500;
    out.push_back(policy);
  }
  return out;
}

/// The parts of a TaskHandoff workload its two variants share: two
/// workers that claim, "run" and post back, and per-id claim and drain
/// counts, each written by the one thread the protocol says owns it.
template <std::uint64_t Tasks, std::uint64_t Capacity>
struct HandoffHarness {
  static constexpr std::uint64_t kTasks = Tasks;
  static constexpr std::uint64_t kCapacity = Capacity;

  [[nodiscard]] std::function<void()> worker(std::uint32_t index) {
    return [this, index] {
      std::uint64_t id = 0;
      while (handoff.claim(id)) {
        chk::plain_write(&claims[id]);
        ++claims[id];
        handoff.post(index, id);
      }
    };
  }

  /// Master side: counts a drained completion.
  void drained(std::uint64_t id) {
    chk::plain_write(&drains[id]);
    ++drains[id];
  }

  /// Every task claimed and drained exactly once.
  [[nodiscard]] bool exact() const {
    const auto once = [](std::uint32_t n) { return n == 1; };
    return std::all_of(claims.begin(), claims.end(), once) &&
           std::all_of(drains.begin(), drains.end(), once);
  }

  exec::TaskHandoff handoff{kCapacity, 2};
  std::array<std::uint32_t, kTasks> claims{};
  std::array<std::uint32_t, kTasks> drains{};
};

/// The executor's run queue (exec::TaskHandoff) on its own: one master
/// pushes kTasks ids (the first alone, then in pairs), drains completions
/// and waits when none is posted; two workers claim, "run" and post back.
/// Every wait here can park, and a parked thread wakes only on a notify
/// (chk::CondVar under a controller), so a lost wake-up ends the schedule
/// as a diagnosed deadlock.
struct HandoffWorkload : HandoffHarness<6, 6> {
  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      std::uint64_t pushed = 0;
      std::uint64_t drained_count = 0;
      const auto on_done = [this, &drained_count](std::uint64_t id) {
        drained(id);
        ++drained_count;
      };
      while (drained_count < kTasks) {
        if (pushed < kTasks) {
          const std::uint64_t ids[2] = {pushed, pushed + 1};
          const std::uint64_t count =
              pushed == 0 ? 1 : std::min<std::uint64_t>(2, kTasks - pushed);
          handoff.push(ids, count);
          pushed += count;
        }
        if (handoff.drain(on_done) == 0 && pushed == kTasks &&
            drained_count < kTasks) {
          handoff.wait_for_completion();
        }
      }
      handoff.close();
    };
    return {master, worker(0), worker(1)};
  }
};

/// TaskHandoff at its in-flight bound: capacity 2 and six tasks, and the
/// master pushes one task whenever fewer than two are in flight (pushed,
/// not yet drained), so every ready slot and completion-log slot is reused
/// and both rings wrap three times.
struct WrapWorkload : HandoffHarness<6, 2> {
  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      std::uint64_t pushed = 0;
      std::uint64_t drained_count = 0;
      const auto on_done = [this, &drained_count](std::uint64_t id) {
        drained(id);
        ++drained_count;
      };
      while (drained_count < kTasks) {
        while (pushed < kTasks && pushed - drained_count < kCapacity) {
          handoff.push(&pushed, 1);
          ++pushed;
        }
        if (handoff.drain(on_done) == 0) handoff.wait_for_completion();
      }
      handoff.close();
    };
    return {master, worker(0), worker(1)};
  }
};

TEST(SchedExploration, TaskHandoffIsRaceFreeAndLosesNoWakeup) {
  for (const auto& policy : sweep_policies(60, 20)) {
    HandoffWorkload workload;
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      const auto outcome = controller.run(workload.threads());
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << "seed " << policy.seed << ": "
          << checker.reports()[0].to_string();
    }
    for (std::uint64_t id = 0; id < HandoffWorkload::kTasks; ++id) {
      EXPECT_EQ(workload.claims[id], 1u) << "seed " << policy.seed;
      EXPECT_EQ(workload.drains[id], 1u) << "seed " << policy.seed;
    }
  }
}

TEST(SchedExploration, TaskHandoffRingWrapIsRaceFreeAndExact) {
  for (const auto& policy : sweep_policies(200, 200)) {
    WrapWorkload workload;
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      const auto outcome = controller.run(workload.threads());
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << controller.seed_banner() << ": "
          << checker.reports()[0].to_string();
    }
    EXPECT_TRUE(workload.exact()) << "seed " << policy.seed;
  }
}

// --- Workload: the Maestro core itself --------------------------------------

/// exec::Maestro at 2 slots, a 2-entry Dependence Table and 2 workers,
/// driven through its own worker loop. The master registers a
/// chain-plus-fan-in stream without draining between tasks, so every
/// release happens in a stall step or in the final drain-out:
///   t0 inout(A)   t1 in(A) out(B)   t2 out(C)   t3 inout(C)
///   t4 in(C) inout(B)   t5 inout(A) in(B)
/// t2 waits for a slot (t0 and t1 hold both), and then for table space:
/// t1 is granted by t0's release but goes to the workers only after that
/// drain, so it still holds A and B. Six tasks through two slots wrap
/// both handoff rings. t5 is released inline, like starss::Runtime's
/// wait_on sentinel: on the master, as soon as it is ready, never run.
struct MaestroWorkload {
  static constexpr std::size_t kTasks = 6;
  static constexpr std::uint64_t kInline = 5;

  // The core's front end.
  using Core = exec::Maestro<MaestroWorkload>;
  using Payload = char;
  static constexpr bool kMasterRunsTasks = false;
  void run(std::uint64_t serial, char& /*payload*/, std::uint32_t) {
    chk::plain_write(&runs[serial]);
    ++runs[serial];
  }
  void released(std::uint64_t slot) { order.push_back(serial_of[slot]); }
  bool release_inline(std::uint64_t slot) const {
    return serial_of[slot] == kInline;
  }

  [[nodiscard]] static exec::MasterResolverConfig config() {
    exec::MasterResolverConfig cfg;
    cfg.pool_capacity = 2;
    cfg.table_capacity = 2;
    return cfg;
  }

  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      for (std::uint64_t k = 0; k < kTasks; ++k) {
        std::uint64_t slot = 0;
        const auto outcome = core.submit(
            k, 0, tasks[k], 0, slot, [this](bool begin) {
              ++(begin ? table_stalls : stall_steps);
            });
        serial_of[slot] = k;
        if (outcome == Core::Outcome::kReady) {
          if (k == kInline) {
            core.release_inline(slot);
          } else {
            core.make_ready(&slot, 1);
          }
        } else if (outcome != Core::Outcome::kWaiting) {
          failure = core.failure();
          break;
        }
      }
      while (failure.empty() && core.in_flight() > 0) {
        if (!core.progress()) failure = core.failure();
      }
      (void)core.join();
    };
    return {master, [this] { core.serve(0); }, [this] { core.serve(1); }};
  }

  std::vector<std::vector<core::Param>> tasks = {
      {core::inout(0xA0)},
      {core::in(0xA0), core::out(0xB0)},
      {core::out(0xC0)},
      {core::inout(0xC0)},
      {core::in(0xC0), core::inout(0xB0)},
      {core::inout(0xA0), core::in(0xB0)},
  };
  std::array<std::uint32_t, kTasks> runs{};
  std::array<std::uint64_t, 2> serial_of{};  ///< master-owned
  std::vector<std::uint64_t> order;           ///< release order
  std::uint32_t stall_steps = 0;
  std::uint32_t table_stalls = 0;
  std::string failure;
  Core core{config(), 2, *this};
};

TEST(SchedExploration, MaestroCoreIsRaceFreeAndReleasesInOracleOrder) {
  for (const auto& policy : sweep_policies(100, 100)) {
    MaestroWorkload workload;
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      const auto outcome = controller.run(workload.threads());
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << controller.seed_banner() << ": "
          << checker.reports()[0].to_string();
    }
    ASSERT_TRUE(workload.failure.empty()) << workload.failure;
    for (std::uint64_t k = 0; k < MaestroWorkload::kTasks; ++k) {
      EXPECT_EQ(workload.runs[k], k == MaestroWorkload::kInline ? 0u : 1u)
          << "seed " << policy.seed << ", t" << k;
    }
    EXPECT_EQ(core::GraphOracle::validate_completion_order(
                  core::MatchMode::kBaseAddr, workload.tasks, workload.order),
              "")
        << "seed " << policy.seed;
    // Slot stalls (steps not preceded by a table stall) and the table
    // stall both happened.
    EXPECT_GE(workload.table_stalls, 1u) << "seed " << policy.seed;
    EXPECT_GT(workload.stall_steps, workload.table_stalls)
        << "seed " << policy.seed;
  }
}

/// exec::Maestro at 2 slots and 2 workers, driven the way
/// starss::Runtime::submit drives it: after registering a task the master
/// releases posted completions only while some registered task waits for
/// a grant, besides one it has just registered ready; every other release
/// happens in a stall step or in the final drain-out. The stream
/// interleaves a RAW chain through A, C and E with independent tasks:
///   t0 out(A)   t1 out(B)   t2 in(A) out(C)   t3 out(D)
///   t4 in(C) out(E)   t5 out(F)
/// A chain task registers waiting whenever its predecessor is not yet
/// released, so schedules take both branches of the rule.
struct OnDemandReleaseWorkload {
  static constexpr std::size_t kTasks = 6;

  // The core's front end.
  using Core = exec::Maestro<OnDemandReleaseWorkload>;
  using Payload = char;
  static constexpr bool kMasterRunsTasks = false;
  void run(std::uint64_t serial, char& /*payload*/, std::uint32_t) {
    chk::plain_write(&runs[serial]);
    ++runs[serial];
  }
  void released(std::uint64_t slot) { order.push_back(serial_of[slot]); }
  static bool release_inline(std::uint64_t /*slot*/) { return false; }

  [[nodiscard]] static exec::MasterResolverConfig config() {
    exec::MasterResolverConfig cfg;
    cfg.pool_capacity = 2;
    cfg.table_capacity = 8;
    return cfg;
  }

  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      for (std::uint64_t k = 0; k < kTasks; ++k) {
        std::uint64_t slot = 0;
        const auto outcome =
            core.submit(k, 0, tasks[k], 0, slot, [](bool) {});
        if (outcome != Core::Outcome::kReady &&
            outcome != Core::Outcome::kWaiting) {
          failure = core.failure();
          break;
        }
        serial_of[slot] = k;
        const bool ready = outcome == Core::Outcome::kReady;
        if (core.waiting() > (ready ? 1u : 0u)) {
          ++on_demand;
          (void)core.release_posted();
        } else {
          ++deferred;
        }
        if (ready) core.make_ready(&slot, 1);
      }
      while (failure.empty() && core.in_flight() > 0) {
        if (!core.progress()) failure = core.failure();
      }
      (void)core.join();
    };
    return {master, [this] { core.serve(0); }, [this] { core.serve(1); }};
  }

  std::vector<std::vector<core::Param>> tasks = {
      {core::out(0xA0)},
      {core::out(0xB0)},
      {core::in(0xA0), core::out(0xC0)},
      {core::out(0xD0)},
      {core::in(0xC0), core::out(0xE0)},
      {core::out(0xF0)},
  };
  std::array<std::uint32_t, kTasks> runs{};
  std::array<std::uint64_t, 2> serial_of{};  ///< master-owned
  std::vector<std::uint64_t> order;           ///< release order
  std::uint32_t on_demand = 0;  ///< submits that released (a task waited)
  std::uint32_t deferred = 0;   ///< submits that left completions posted
  std::string failure;
  Core core{config(), 2, *this};
};

TEST(SchedExploration, OnDemandReleaseIsRaceFreeAndReleasesInOracleOrder) {
  std::uint32_t on_demand = 0;
  std::uint32_t deferred = 0;
  for (const auto& policy : sweep_policies(100, 100)) {
    OnDemandReleaseWorkload workload;
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      // A lost wake-up parks a thread for good: a diagnosed deadlock.
      const auto outcome = controller.run(workload.threads());
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << controller.seed_banner() << ": "
          << checker.reports()[0].to_string();
    }
    ASSERT_TRUE(workload.failure.empty()) << workload.failure;
    for (std::uint64_t k = 0; k < OnDemandReleaseWorkload::kTasks; ++k) {
      EXPECT_EQ(workload.runs[k], 1u) << "seed " << policy.seed << ", t" << k;
    }
    EXPECT_EQ(core::GraphOracle::validate_completion_order(
                  core::MatchMode::kBaseAddr, workload.tasks, workload.order),
              "")
        << "seed " << policy.seed;
    on_demand += workload.on_demand;
    deferred += workload.deferred;
  }
  // The sweep took both branches of the release rule.
  EXPECT_GT(on_demand, 0u);
  EXPECT_GT(deferred, 0u);
}

/// exec::Maestro with one worker and a front end whose master runs tasks
/// while it waits (exec-threads' waiting rule), at 4 slots. The master
/// registers without draining between tasks; the stream is mostly
/// independent, so when the slots fill more tasks are ready than there is
/// a worker, and the master's try_claim races the worker's claim for the
/// oldest one, in the stall steps and in the final drain-out:
///   t0 out(A)   t1 out(B)   t2 out(C)   t3 out(D)   t4 in(A) out(E)
///   t5 out(F)
struct MasterRunsWorkload {
  static constexpr std::size_t kTasks = 6;
  static constexpr std::uint32_t kMaster = 1;  ///< the master's executor

  // The core's front end.
  using Core = exec::Maestro<MasterRunsWorkload>;
  using Payload = char;
  static constexpr bool kMasterRunsTasks = true;
  void run(std::uint64_t serial, char& /*payload*/, std::uint32_t executor) {
    chk::plain_write(&runs[serial]);
    ++runs[serial];
    ran_on[serial] = executor;
  }
  void released(std::uint64_t slot) { order.push_back(serial_of[slot]); }
  static bool release_inline(std::uint64_t /*slot*/) { return false; }

  [[nodiscard]] static exec::MasterResolverConfig config() {
    exec::MasterResolverConfig cfg;
    cfg.pool_capacity = 4;
    cfg.table_capacity = 8;
    return cfg;
  }

  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      for (std::uint64_t k = 0; k < kTasks; ++k) {
        std::uint64_t slot = 0;
        const auto outcome =
            core.submit(k, 0, tasks[k], 0, slot, [](bool) {});
        serial_of[slot] = k;
        if (outcome == Core::Outcome::kReady) {
          core.make_ready(&slot, 1);
        } else if (outcome != Core::Outcome::kWaiting) {
          failure = core.failure();
          break;
        }
      }
      while (failure.empty() && core.in_flight() > 0) {
        if (!core.progress()) failure = core.failure();
      }
      (void)core.join();
    };
    return {master, [this] { core.serve(0); }};
  }

  /// Tasks executor `executor` ran.
  [[nodiscard]] std::uint32_t ran_by(std::uint32_t executor) const {
    std::uint32_t n = 0;
    for (std::size_t k = 0; k < kTasks; ++k) n += ran_on[k] == executor;
    return n;
  }

  std::vector<std::vector<core::Param>> tasks = {
      {core::out(0xA0)},
      {core::out(0xB0)},
      {core::out(0xC0)},
      {core::out(0xD0)},
      {core::in(0xA0), core::out(0xE0)},
      {core::out(0xF0)},
  };
  std::array<std::uint32_t, kTasks> runs{};
  std::array<std::uint32_t, kTasks> ran_on{};  ///< executor of each run
  std::array<std::uint64_t, 4> serial_of{};    ///< master-owned
  std::vector<std::uint64_t> order;            ///< release order
  std::string failure;
  Core core{config(), 1, *this};
};

TEST(SchedExploration, MasterRunningTasksIsRaceFreeAndRunsEachOnce) {
  std::uint32_t master_runs = 0;
  std::uint32_t worker_runs = 0;
  for (const auto& policy : sweep_policies(100, 100)) {
    MasterRunsWorkload workload;
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      // A lost wake-up parks a thread for good: a diagnosed deadlock.
      const auto outcome = controller.run(workload.threads());
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << controller.seed_banner() << ": "
          << checker.reports()[0].to_string();
    }
    ASSERT_TRUE(workload.failure.empty()) << workload.failure;
    for (std::uint64_t k = 0; k < MasterRunsWorkload::kTasks; ++k) {
      EXPECT_EQ(workload.runs[k], 1u) << "seed " << policy.seed << ", t" << k;
    }
    EXPECT_EQ(core::GraphOracle::validate_completion_order(
                  core::MatchMode::kBaseAddr, workload.tasks, workload.order),
              "")
        << "seed " << policy.seed;
    master_runs += workload.ran_by(MasterRunsWorkload::kMaster);
    worker_runs += workload.ran_by(0);
  }
  // The sweep had both executors run tasks, so their claims raced.
  EXPECT_GT(master_runs, 0u);
  EXPECT_GT(worker_runs, 0u);
}

// --- The mutant: an early ready-tail publication, found and replayed ---------

struct MutantScope {
  MutantScope() { chk::Faults::set_publish_ready_tail_early(true); }
  ~MutantScope() { chk::Faults::set_publish_ready_tail_early(false); }
};

/// Signature of a detection, stable across processes for one seed: the
/// schedule trace plus every (kind, prior line, current line) report.
struct Detection {
  std::vector<TraceEntry> trace;
  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> reports;
  ScheduleOutcome::Kind outcome = ScheduleOutcome::Kind::kCompleted;
  bool exact = true;  ///< every task claimed and drained exactly once
};

template <class Workload = HandoffWorkload>
Detection run_mutant_schedule(const SchedulePolicy& policy) {
  Workload workload;
  RaceChecker checker;
  Detection out;
  {
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, &checker);
    out.outcome = controller.run(workload.threads()).kind;
    out.trace = controller.trace();
  }
  for (const auto& report : checker.reports()) {
    out.reports.emplace(static_cast<int>(report.kind), report.prior.line,
                        report.current.line);
  }
  out.exact = workload.exact();
  return out;
}

TEST(SchedExploration, MutantPublicationRaceIsFoundAndReplays) {
  const MutantScope mutant;
  // Bounded budget: the CI gate is "found within kBudget schedules", the
  // same contract a nightly sweep would enforce.
  constexpr int kBudget = 200;
  int attempts = 0;
  SchedulePolicy found_policy;
  Detection found;
  bool detected = false;
  for (const auto& policy : sweep_policies(150, 50)) {
    ++attempts;
    const auto result = run_mutant_schedule(policy);
    if (!result.reports.empty()) {
      found_policy = policy;
      found = result;
      detected = true;
      break;
    }
    if (attempts >= kBudget) break;
  }
  ASSERT_TRUE(detected) << "mutant race not found within " << kBudget
                        << " schedules";
  EXPECT_LE(attempts, kBudget);

  // Replay: the banner seed must reproduce the identical interleaving
  // and the identical racing pair — that is the debugging contract.
  const auto replay = run_mutant_schedule(found_policy);
  EXPECT_TRUE(traces_equal(found.trace, replay.trace))
      << "replay of seed " << found_policy.seed
      << " diverged from the original failing schedule";
  EXPECT_EQ(found.reports, replay.reports);
  EXPECT_EQ(found.outcome, replay.outcome);

  // The racing pair is the real one: both sides live in the handoff.
  ASSERT_FALSE(found.reports.empty());
}

TEST(SchedExploration, MutantDisabledSameSeedsAreClean) {
  // The schedules that exposed the mutant must be clean on real code —
  // the detector reacts to the fault, not to the workload.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    const auto result = run_mutant_schedule(policy);
    EXPECT_TRUE(result.reports.empty()) << "seed " << seed;
    EXPECT_EQ(result.outcome, ScheduleOutcome::Kind::kCompleted);
  }
}

// --- The mutant: a ring slot read after its claim, found and replayed --------

struct LateReadScope {
  LateReadScope() { chk::Faults::set_read_ready_slot_after_claim(true); }
  ~LateReadScope() { chk::Faults::set_read_ready_slot_after_claim(false); }
};

/// The bug shows as a claimer reading the next lap's id: a task run twice
/// and another never (or the racing claims bookkeeping), or a hang.
[[nodiscard]] bool wrong(const Detection& d) {
  return !d.reports.empty() || !d.exact ||
         d.outcome != ScheduleOutcome::Kind::kCompleted;
}

TEST(SchedExploration, MutantLateSlotReadIsFoundAndReplays) {
  const LateReadScope mutant;
  // Bounded PCT budget. Random walks rarely keep a claimer parked between
  // its CAS and its read long enough for the master to lap the ring; PCT's
  // priority change points do.
  constexpr std::uint64_t kBudget = 400;
  SchedulePolicy found_policy;
  Detection found;
  bool detected = false;
  for (const auto& policy : sweep_policies(0, kBudget)) {
    found = run_mutant_schedule<WrapWorkload>(policy);
    if (wrong(found)) {
      found_policy = policy;
      detected = true;
      break;
    }
  }
  ASSERT_TRUE(detected) << "late slot read not found within " << kBudget
                        << " PCT schedules";

  const auto replay = run_mutant_schedule<WrapWorkload>(found_policy);
  EXPECT_TRUE(traces_equal(found.trace, replay.trace))
      << "replay of PCT seed " << found_policy.seed
      << " diverged from the original failing schedule";
  EXPECT_EQ(found.reports, replay.reports);
  EXPECT_EQ(found.outcome, replay.outcome);
  EXPECT_EQ(found.exact, replay.exact);
}

// --- The mutant: a completion stamp published before its id ------------------

struct StampEarlyScope {
  StampEarlyScope() { chk::Faults::set_publish_completion_stamp_early(true); }
  ~StampEarlyScope() {
    chk::Faults::set_publish_completion_stamp_early(false);
  }
};

TEST(SchedExploration, MutantEarlyCompletionStampIsFoundAndReplays) {
  const StampEarlyScope mutant;
  // The same bounded budget as the ready-tail mutant: the master must be
  // scheduled between a worker's stamp store and its id store.
  constexpr int kBudget = 200;
  int attempts = 0;
  SchedulePolicy found_policy;
  Detection found;
  bool detected = false;
  for (const auto& policy : sweep_policies(150, 50)) {
    ++attempts;
    found = run_mutant_schedule(policy);
    if (wrong(found)) {
      found_policy = policy;
      detected = true;
      break;
    }
    if (attempts >= kBudget) break;
  }
  ASSERT_TRUE(detected) << "early completion stamp not found within "
                        << kBudget << " schedules";

  const auto replay = run_mutant_schedule(found_policy);
  EXPECT_TRUE(traces_equal(found.trace, replay.trace))
      << "replay of seed " << found_policy.seed
      << " diverged from the original failing schedule";
  EXPECT_EQ(found.reports, replay.reports);
  EXPECT_EQ(found.outcome, replay.outcome);
  EXPECT_EQ(found.exact, replay.exact);
}

}  // namespace
}  // namespace nexuspp

#endif  // NEXUSPP_SCHEDCHECK
