// The NEXUSPP_CHECKED invariant layer's own tests. Each negative test
// violates one invariant in a death-test child process and asserts the
// checked build aborts with the documented "nexuspp-checked:" diagnostic;
// the positive tests prove the real resolver paths, starss::Runtime's
// submit path and exec-threads' task path run clean under full
// instrumentation (no allocation once the tables are built and the path
// is warm). In a normal
// build the hooks compile to nothing, and this file only verifies they
// stay inert.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"
#include "exec/executor.hpp"
#include "exec/master_resolver.hpp"
#include "runtime/runtime.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace nexuspp {
namespace {

using exec::MasterResolver;
using util::AllowAllocScope;
using util::LockDomain;
using util::LockRankGuard;
using util::NoAllocScope;

/// The core tables' allocation-free contract: once constructed, TaskPool +
/// DependenceTable + Resolver run insert / submit / finish / free for
/// random base-address tasks, wide ones spilling into dummy tasks and long
/// kick-off lists into dummy entries, without one heap allocation. Every
/// buffer the loop uses is sized before the scope opens; failures are
/// recorded and asserted after it closes (gtest's messages allocate).
TEST(CheckedInvariants, CoreChurnIsAllocationFree) {
  constexpr std::uint64_t kTasks = 20000;
  constexpr std::uint64_t kAddresses = 32;
  core::TaskPool pool({256, 8});
  core::DependenceTable table({2048, 8});
  core::Resolver resolver(pool, table);
  util::Rng rng(13);
  std::array<core::Param, 12> params{};
  // Ready tasks in FIFO order: a ring over at most every live task.
  std::vector<core::TaskId> ready(pool.capacity());
  std::size_t ready_head = 0;
  std::size_t ready_count = 0;
  std::vector<core::TaskId> granted;
  granted.reserve(pool.capacity());
  const auto push_ready = [&](core::TaskId id) {
    ready[(ready_head + ready_count++) % ready.size()] = id;
  };
  std::uint64_t submitted = 0;
  std::uint64_t finished = 0;
  bool stalled = false;
  bool wedged = false;
  {
    const NoAllocScope no_alloc("core churn");
    while (finished < kTasks) {
      if (submitted < kTasks) {
        // Distinct bases: an odd stride over a power-of-two address set.
        const std::size_t n = 1 + rng.below(params.size());
        const std::uint64_t start = rng.below(kAddresses);
        const std::uint64_t stride = 2 * rng.below(kAddresses / 2) + 1;
        for (std::size_t k = 0; k < n; ++k) {
          const core::Addr addr =
              0x1000 + 64 * ((start + k * stride) % kAddresses);
          const auto roll = rng.below(3);
          params[k] = roll == 0   ? core::in(addr, 64)
                      : roll == 1 ? core::out(addr, 64)
                                  : core::inout(addr, 64);
        }
        const auto inserted = pool.insert(
            0xF, submitted, std::span<const core::Param>(params.data(), n));
        if (inserted.has_value()) {
          const auto sub = resolver.submit(inserted->id);
          if (sub.stalled) {
            stalled = true;
            break;
          }
          if (sub.ready) push_ready(inserted->id);
          ++submitted;
          continue;
        }
      }
      if (ready_count == 0) {
        wedged = true;
        break;
      }
      const core::TaskId id = ready[ready_head];
      ready_head = (ready_head + 1) % ready.size();
      --ready_count;
      granted.clear();
      (void)resolver.finish(id, granted);
      (void)pool.free_task(id);
      for (const core::TaskId next : granted) push_ready(next);
      ++finished;
    }
  }
  ASSERT_FALSE(stalled) << "the dependence table is sized never to fill";
  ASSERT_FALSE(wedged) << "the oldest live task is always ready";
  EXPECT_EQ(finished, kTasks);
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(table.empty());
  // The run exercised both dummy mechanisms.
  EXPECT_GT(pool.stats().dummy_slots_allocated, 0u);
  EXPECT_GT(table.stats().ko_dummy_allocations, 0u);
}

/// The exec master's registration and release contract: once the
/// resolver is constructed, begin_submit / advance / finish run thousands
/// of random base-address tasks — through pool and table stalls, dummy
/// tasks and dummy entries — without one heap allocation. The parameter
/// lists are built before the scope opens and lent to each session, as
/// the executor lends each stream record's list.
TEST(CheckedInvariants, MasterRegistrationIsAllocationFree) {
  constexpr std::uint64_t kTasks = 4000;
  constexpr std::uint64_t kAddresses = 32;
  exec::MasterResolverConfig cfg;
  cfg.pool_capacity = 128;
  cfg.table_capacity = 256;
  MasterResolver resolver(cfg, kTasks);
  util::Rng rng(17);
  std::vector<std::vector<core::Param>> params(kTasks);
  for (auto& list : params) {
    // Distinct bases: an odd stride over a power-of-two address set.
    const std::size_t n = 1 + rng.below(12);
    const std::uint64_t start = rng.below(kAddresses);
    const std::uint64_t stride = 2 * rng.below(kAddresses / 2) + 1;
    for (std::size_t k = 0; k < n; ++k) {
      const core::Addr addr = 0x1000 + 64 * ((start + k * stride) % kAddresses);
      const auto roll = rng.below(3);
      list.push_back(roll == 0   ? core::in(addr, 64)
                     : roll == 1 ? core::out(addr, 64)
                                 : core::inout(addr, 64));
    }
  }
  // Every task is made ready exactly once, so a plain array is the FIFO.
  std::vector<MasterResolver::GlobalId> ready(kTasks);
  std::vector<MasterResolver::GlobalId> granted;
  granted.reserve(cfg.pool_capacity);
  std::size_t ready_head = 0;
  std::size_t ready_tail = 0;
  std::uint64_t finished = 0;
  std::uint64_t stalls = 0;
  bool failed = false;
  const auto finish_oldest = [&] {
    resolver.finish(ready[ready_head++], granted);
    for (const auto gid : granted) ready[ready_tail++] = gid;
    ++finished;
  };
  {
    const NoAllocScope no_alloc("master registration");
    for (std::uint64_t gid = 0; gid < kTasks && !failed; ++gid) {
      auto session = resolver.begin_submit(gid, gid, 0xF, params[gid]);
      for (;;) {
        const auto progress = session.advance();
        if (progress == MasterResolver::Progress::kDone) break;
        if (progress == MasterResolver::Progress::kStructural ||
            ready_head == ready_tail) {
          failed = true;
          break;
        }
        ++stalls;
        finish_oldest();
      }
      if (session.ready()) ready[ready_tail++] = gid;
    }
    while (!failed && ready_head < ready_tail) finish_oldest();
  }
  ASSERT_FALSE(failed) << "the oldest live task is always ready";
  EXPECT_EQ(finished, kTasks);
  // The run exercised stalls and both dummy mechanisms.
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(resolver.pool_stats().dummy_slots_allocated, 0u);
  EXPECT_GT(resolver.table_stats().ko_dummy_allocations, 0u);
}

/// starss::Runtime's submit path once warm: the registration session,
/// to_params into the Maestro's buffer, the releases (on demand and in
/// stall steps) and the push to the workers allocate nothing, for a task
/// whose callable (two pointers) std::function holds inline. The workers
/// are other threads, outside the scope.
TEST(CheckedInvariants, RuntimeSubmitIsAllocationFree) {
  constexpr std::size_t kWarm = 2000;
  constexpr std::size_t kTasks = 5000;
  constexpr std::size_t kCells = 64;
  struct CellTask {
    std::size_t out;
    std::size_t in_a;
    std::size_t in_b;
    void mix(std::uint64_t* cells) const {
      cells[out] = cells[out] * 3 + cells[in_a] + cells[in_b];
    }
  };
  util::Rng rng(23);
  std::vector<CellTask> tasks(kWarm + kTasks);
  for (CellTask& t : tasks) {
    t.out = rng.below(kCells);
    t.in_a = (t.out + 1 + rng.below(kCells - 1)) % kCells;
    t.in_b = rng.below(kCells);
  }
  std::vector<std::uint64_t> expected(kCells, 1);
  for (const CellTask& t : tasks) t.mix(expected.data());

  std::vector<std::uint64_t> cells(kCells, 1);
  std::uint64_t* const base = cells.data();
  starss::Runtime rt(2);
  const auto submit = [&](std::size_t k) {
    const CellTask* const task = &tasks[k];
    rt.submit([base, task] { task->mix(base); },
              {starss::inout(base + task->out), starss::in(base + task->in_a),
               starss::in(base + task->in_b)});
  };
  for (std::size_t k = 0; k < kWarm; ++k) submit(k);
  {
    const NoAllocScope no_alloc("runtime submit");
    for (std::size_t k = kWarm; k < kWarm + kTasks; ++k) submit(k);
  }
  rt.wait_all();
  EXPECT_EQ(cells, expected);
}

/// exec-threads' task path: ThreadedExecutor runs every task under a
/// NoAllocScope, on a worker or on the master, letting only observer
/// callbacks allocate. With no observer and no timeline, a threads = 2 run
/// whose master also runs tasks (16 slots fill with independent work)
/// allocates nothing there: the turnaround reservoirs are reserved before
/// the workers start. In the checked build an allocation would abort.
TEST(CheckedInvariants, ExecTaskPathIsAllocationFree) {
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>(3000);
  for (std::size_t i = 0; i < tasks->size(); ++i) {
    (*tasks)[i].serial = i;
    (*tasks)[i].exec_time = sim::ns(500);
    (*tasks)[i].params = {core::inout(0x1000 + 64 * (i % 64))};
  }
  exec::ExecConfig cfg;
  cfg.threads = 2;
  cfg.task_pool_capacity = 16;
  exec::ThreadedExecutor executor(cfg);
  const auto report =
      executor.run(std::make_unique<trace::VectorStream>(tasks));
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.tasks_completed, tasks->size());
}

#if defined(NEXUSPP_CHECKED)

TEST(CheckedInvariantsDeath, RunQueueLockRecursionAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard first(LockDomain::kRunQueue);
        const LockRankGuard second(LockDomain::kRunQueue);
      },
      "nexuspp-checked: run-queue lock acquired recursively");
}

TEST(CheckedInvariantsDeath, RunQueueUnderSchedcheckLockAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard chk(LockDomain::kChk);
        const LockRankGuard queue(LockDomain::kRunQueue);
      },
      "nexuspp-checked: run-queue lock acquired while schedcheck lock is "
      "held");
}

TEST(CheckedInvariantsDeath, HotPathAllocationAborts) {
  EXPECT_DEATH(
      {
        const NoAllocScope guard("injected-hot-path");
        auto* leak = new int(42);  // trips the operator-new hook
        (void)leak;
      },
      "nexuspp-checked: allocation inside a no-alloc scope "
      "\\(injected-hot-path\\)");
}

TEST(CheckedInvariants, SequentialLocksAndAllowedAllocsPass) {
  {
    const LockRankGuard first(LockDomain::kRunQueue);
  }
  const LockRankGuard second(LockDomain::kRunQueue);  // prior scope closed
  const LockRankGuard leaf(LockDomain::kChk);  // kChk nests under it

  const NoAllocScope no_alloc("audited-region");
  const AllowAllocScope allow("audited interior site");
  auto* fine = new int(7);  // inside the allow window: must not abort
  delete fine;
}

#else  // !NEXUSPP_CHECKED

TEST(CheckedInvariants, HooksAreInertInNormalBuilds) {
  // The no-op versions must accept the same shapes and do nothing.
  const LockRankGuard a(LockDomain::kRunQueue);
  const LockRankGuard b(LockDomain::kRunQueue);  // no tracking: no abort
  const NoAllocScope no_alloc("ignored");
  auto* ok = new int(1);  // no operator-new hook in normal builds
  delete ok;
}

#endif  // NEXUSPP_CHECKED

}  // namespace
}  // namespace nexuspp
