// The NEXUSPP_CHECKED invariant layer's own tests. Each negative test
// violates one invariant in a death-test child process and asserts the
// checked build aborts with the documented "nexuspp-checked:" diagnostic;
// the positive tests prove the real resolver paths run clean under full
// instrumentation (the audited AllowAllocScope holes line up with every
// allocation the release path actually performs). In a normal build the
// hooks compile to nothing, and this file only verifies they stay inert.

#include <gtest/gtest.h>

#include <array>
#include <span>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"
#include "exec/epoch.hpp"
#include "exec/sharded_resolver.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace nexuspp {
namespace {

using exec::EpochDomain;
using exec::ShardedResolver;
using exec::ShardedResolverConfig;
using exec::SyncMode;
using util::AllowAllocScope;
using util::LockDomain;
using util::LockRankGuard;
using util::NoAllocScope;

/// Submits `tasks` single-chain tasks (all inout on one address, so task
/// i depends on task i-1), then finishes them in dependency order. This
/// walks the full grant machinery — shard critical sections, pending-
/// counter votes, and in lockfree mode the combiner + epoch reclamation —
/// under whatever instrumentation the build enables.
void drive_chain(SyncMode sync, std::uint64_t tasks) {
  ShardedResolverConfig cfg;
  cfg.shards = 4;
  cfg.pool_capacity = 256;
  cfg.table_capacity = 1024;
  cfg.sync = sync;
  ShardedResolver resolver(cfg, tasks);

  std::vector<ShardedResolver::GlobalId> order;
  for (std::uint64_t gid = 0; gid < tasks; ++gid) {
    auto session = resolver.begin_submit(
        gid, gid, 0, std::vector<core::Param>{core::inout(0x1000)});
    ASSERT_EQ(session.advance(), ShardedResolver::Progress::kDone);
    if (session.ready()) order.push_back(gid);
  }
  ASSERT_EQ(order.size(), 1u);  // head of the chain only

  std::vector<ShardedResolver::GlobalId> now_ready;
  std::uint64_t finished = 0;
  while (finished < order.size()) {
    resolver.finish(order[finished], now_ready);
    ++finished;
    order.insert(order.end(), now_ready.begin(), now_ready.end());
  }
  EXPECT_EQ(finished, tasks);
}

TEST(CheckedInvariants, ResolverChainRunsCleanMutex) {
  drive_chain(SyncMode::kMutex, 64);
}

TEST(CheckedInvariants, ResolverChainRunsCleanLockfree) {
  drive_chain(SyncMode::kLockFree, 64);
}

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

#if defined(NEXUSPP_CHECKED)

TEST(CheckedInvariantsDeath, TwoShardLocksAbort) {
  EXPECT_DEATH(
      {
        const LockRankGuard first(LockDomain::kShard);
        const LockRankGuard second(LockDomain::kShard);
      },
      "nexuspp-checked: shard lock acquired while a shard lock is held");
}

TEST(CheckedInvariantsDeath, RunQueueUnderShardLockAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard shard(LockDomain::kShard);
        const LockRankGuard queue(LockDomain::kRunQueue);
      },
      "nexuspp-checked: run-queue lock acquired while a shard lock is held");
}

TEST(CheckedInvariantsDeath, ShardUnderRunQueueLockAborts) {
  EXPECT_DEATH(
      {
        const LockRankGuard queue(LockDomain::kRunQueue);
        const LockRankGuard shard(LockDomain::kShard);
      },
      "nexuspp-checked: shard lock acquired while run-queue lock is held");
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

TEST(CheckedInvariantsDeath, EpochDerefWithoutGuardAborts) {
  EXPECT_DEATH(
      util::assert_epoch_guard("test-site"),
      "nexuspp-checked: epoch-protected memory dereferenced without a guard "
      "\\(test-site\\)");
}

TEST(CheckedInvariants, SequentialLocksAndAllowedAllocsPass) {
  {
    const LockRankGuard first(LockDomain::kShard);
  }
  const LockRankGuard second(LockDomain::kShard);  // prior scope closed

  const NoAllocScope no_alloc("audited-region");
  const AllowAllocScope allow("audited interior site");
  auto* fine = new int(7);  // inside the allow window: must not abort
  delete fine;
}

TEST(CheckedInvariants, EpochGuardSatisfiesAssertion) {
  EpochDomain domain;
  EpochDomain::Guard guard(domain);
  util::assert_epoch_guard("test-site");  // pinned: must not abort
}

#else  // !NEXUSPP_CHECKED

TEST(CheckedInvariants, HooksAreInertInNormalBuilds) {
  // The no-op versions must accept the same shapes and do nothing.
  const LockRankGuard a(LockDomain::kShard);
  const LockRankGuard b(LockDomain::kShard);  // no tracking: no abort
  const NoAllocScope no_alloc("ignored");
  auto* ok = new int(1);  // no operator-new hook in normal builds
  delete ok;
  util::assert_epoch_guard("ignored");
}

#endif  // NEXUSPP_CHECKED

}  // namespace
}  // namespace nexuspp
