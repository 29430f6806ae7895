// Tests for the Resolver: the paper's Listing 2 (Check Deps) and the Handle
// Finished walk, covering RAW, WAR, WAW and RAR hazards, kick-off grant
// order, and stall/retry behaviour on full tables.

#include <gtest/gtest.h>

#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"

namespace nexuspp {
namespace {

using core::AccessMode;
using core::DependenceTable;
using core::Param;
using core::Resolver;
using core::TaskDescriptor;
using core::TaskId;
using core::TaskPool;

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest() : tp_({64, 8}), dt_({64, 8}), resolver_(tp_, dt_) {}

  /// Inserts a task with the given params and submits it through Listing 2.
  /// Returns {task id, ready}.
  std::pair<TaskId, bool> submit(std::vector<Param> params,
                                 std::uint64_t fn = 0) {
    TaskDescriptor td;
    td.fn = fn;
    td.params = std::move(params);
    auto ins = tp_.insert(td);
    EXPECT_TRUE(ins.has_value());
    auto sub = resolver_.submit(ins->id);
    EXPECT_FALSE(sub.stalled);
    return {ins->id, sub.ready};
  }

  /// Finishes a task: resolves its accesses and frees its pool slot(s),
  /// like the Handle Finished block does. Returns newly ready tasks.
  std::vector<TaskId> finish(TaskId id) {
    auto fin = resolver_.finish(id);
    tp_.free_task(id);
    return fin.now_ready;
  }

  TaskPool tp_;
  DependenceTable dt_;
  Resolver resolver_;
};

TEST_F(ResolverTest, IndependentTasksAllReady) {
  auto [t1, r1] = submit({core::in(0x100), core::out(0x200)});
  auto [t2, r2] = submit({core::in(0x300), core::out(0x400)});
  EXPECT_TRUE(r1);
  EXPECT_TRUE(r2);
  EXPECT_EQ(dt_.live_slot_count(), 4u);
  EXPECT_TRUE(finish(t1).empty());
  EXPECT_TRUE(finish(t2).empty());
  EXPECT_TRUE(dt_.empty());  // all addresses retired
  EXPECT_TRUE(tp_.empty());
}

TEST_F(ResolverTest, RawDependencyChains) {
  auto [producer, r1] = submit({core::out(0xA0)});
  auto [consumer, r2] = submit({core::in(0xA0)});
  EXPECT_TRUE(r1);
  EXPECT_FALSE(r2);
  EXPECT_EQ(tp_.dependence_count(consumer), 1u);
  auto ready = finish(producer);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], consumer);
  EXPECT_TRUE(finish(consumer).empty());
  EXPECT_TRUE(dt_.empty());
  EXPECT_EQ(resolver_.stats().raw_hazards, 1u);
}

TEST_F(ResolverTest, ConcurrentReadersShareAddress) {
  auto [w, rw] = submit({core::out(0xB0)});
  EXPECT_TRUE(rw);
  EXPECT_TRUE(finish(w).empty());
  // Address retired; new readers insert a fresh read entry.
  auto [r1, a] = submit({core::in(0xB0)});
  auto [r2, b] = submit({core::in(0xB0)});
  auto [r3, c] = submit({core::in(0xB0)});
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_TRUE(c);
  auto hit = dt_.lookup(0xB0);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_EQ(dt_.readers(*hit.index), 3u);
  finish(r1);
  finish(r2);
  EXPECT_FALSE(dt_.empty());
  finish(r3);
  EXPECT_TRUE(dt_.empty());  // last reader retires the entry
}

TEST_F(ResolverTest, WarWriterWaitsForReaders) {
  auto [r1, a] = submit({core::in(0xC0)});
  auto [r2, b] = submit({core::in(0xC0)});
  EXPECT_TRUE(a && b);
  auto [w, c] = submit({core::out(0xC0)});
  EXPECT_FALSE(c);  // WAR: writer queues behind the two readers
  auto hit = dt_.lookup(0xC0);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_TRUE(dt_.writer_waits(*hit.index));
  EXPECT_EQ(resolver_.stats().war_hazards, 1u);

  EXPECT_TRUE(finish(r1).empty());  // one reader left
  auto ready = finish(r2);          // last reader hands over to the writer
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], w);
  hit = dt_.lookup(0xC0);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_TRUE(dt_.is_out(*hit.index));
  EXPECT_FALSE(dt_.writer_waits(*hit.index));
  finish(w);
  EXPECT_TRUE(dt_.empty());
}

TEST_F(ResolverTest, ReaderCannotOvertakeWaitingWriter) {
  auto [r1, a] = submit({core::in(0xD0)});
  auto [w, b] = submit({core::out(0xD0)});
  auto [r2, c] = submit({core::in(0xD0)});  // arrives after the writer
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(c);  // must queue behind the waiting writer

  auto ready = finish(r1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], w);
  ready = finish(w);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], r2);
  finish(r2);
  EXPECT_TRUE(dt_.empty());
}

TEST_F(ResolverTest, WawHandsOverDirectly) {
  auto [w1, a] = submit({core::out(0xE0)});
  auto [w2, b] = submit({core::out(0xE0)});
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_EQ(resolver_.stats().waw_hazards, 1u);
  auto ready = finish(w1);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0], w2);
  auto hit = dt_.lookup(0xE0);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_TRUE(dt_.is_out(*hit.index));  // stays a write entry
  finish(w2);
  EXPECT_TRUE(dt_.empty());
}

TEST_F(ResolverTest, WriterReleaseGrantsReaderBatchThenWriterWaits) {
  auto [w1, a] = submit({core::out(0xF0)});
  auto [r1, b] = submit({core::in(0xF0)});
  auto [r2, c] = submit({core::in(0xF0)});
  auto [w2, d] = submit({core::out(0xF0)});
  auto [r3, e] = submit({core::in(0xF0)});
  EXPECT_TRUE(a);
  EXPECT_FALSE(b || c || d || e);

  // w1 finishes: r1 and r2 are granted together; w2 sets ww; r3 stays.
  auto ready = finish(w1);
  EXPECT_EQ(ready, (std::vector<TaskId>{r1, r2}));
  auto hit = dt_.lookup(0xF0);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_FALSE(dt_.is_out(*hit.index));
  EXPECT_EQ(dt_.readers(*hit.index), 2u);
  EXPECT_TRUE(dt_.writer_waits(*hit.index));

  EXPECT_TRUE(finish(r1).empty());
  ready = finish(r2);
  EXPECT_EQ(ready, (std::vector<TaskId>{w2}));
  ready = finish(w2);
  EXPECT_EQ(ready, (std::vector<TaskId>{r3}));
  finish(r3);
  EXPECT_TRUE(dt_.empty());
  EXPECT_TRUE(tp_.empty());
}

TEST_F(ResolverTest, InOutActsAsWriterBothWays) {
  auto [t1, a] = submit({core::inout(0x111)});
  auto [t2, b] = submit({core::inout(0x111)});
  auto [t3, c] = submit({core::in(0x111)});
  EXPECT_TRUE(a);
  EXPECT_FALSE(b);
  EXPECT_FALSE(c);
  auto ready = finish(t1);
  EXPECT_EQ(ready, (std::vector<TaskId>{t2}));
  ready = finish(t2);
  EXPECT_EQ(ready, (std::vector<TaskId>{t3}));
  finish(t3);
  EXPECT_TRUE(dt_.empty());
}

TEST_F(ResolverTest, MultiParamTaskCountsEachDependency) {
  auto [w1, a] = submit({core::out(0x10)});
  auto [w2, b] = submit({core::out(0x20)});
  EXPECT_TRUE(a && b);
  auto [t, c] = submit({core::in(0x10), core::in(0x20), core::in(0x30)});
  EXPECT_FALSE(c);
  EXPECT_EQ(tp_.dependence_count(t), 2u);  // 0x30 granted immediately
  EXPECT_TRUE(finish(w1).empty());         // one dependency left
  auto ready = finish(w2);
  EXPECT_EQ(ready, (std::vector<TaskId>{t}));
  finish(t);
  EXPECT_TRUE(dt_.empty());
}

TEST_F(ResolverTest, WavefrontDiamondOrder) {
  // decode-style diamond: A writes x and y; B reads x writes u; C reads y
  // writes v; D reads u and v.
  auto [ta, ra] = submit({core::out(0x1), core::out(0x2)});
  auto [tb, rb] = submit({core::in(0x1), core::out(0x3)});
  auto [tc, rc] = submit({core::in(0x2), core::out(0x4)});
  auto [td, rd] = submit({core::in(0x3), core::in(0x4)});
  EXPECT_TRUE(ra);
  EXPECT_FALSE(rb || rc || rd);
  auto ready = finish(ta);
  EXPECT_EQ(ready, (std::vector<TaskId>{tb, tc}));
  EXPECT_TRUE(finish(tb).empty());
  ready = finish(tc);
  EXPECT_EQ(ready, (std::vector<TaskId>{td}));
  finish(td);
  EXPECT_TRUE(dt_.empty());
  EXPECT_TRUE(tp_.empty());
}

TEST_F(ResolverTest, WideTaskWithDummyChainResolves) {
  // A producer writes 12 addresses; a 12-input consumer (needing a dummy
  // task in the pool) depends on all of them.
  std::vector<Param> outs;
  std::vector<Param> ins;
  for (core::Addr a = 0; a < 12; ++a) {
    outs.push_back(core::out(0x1000 + a * 8));
    ins.push_back(core::in(0x1000 + a * 8));
  }
  auto [producer, rp] = submit(outs);
  auto [consumer, rc] = submit(ins);
  EXPECT_TRUE(rp);
  EXPECT_FALSE(rc);
  EXPECT_EQ(tp_.dependence_count(consumer), 12u);
  EXPECT_GT(tp_.dummy_count(consumer), 0u);
  auto ready = finish(producer);
  EXPECT_EQ(ready, (std::vector<TaskId>{consumer}));
  finish(consumer);
  EXPECT_TRUE(dt_.empty());
  EXPECT_TRUE(tp_.empty());
}

TEST_F(ResolverTest, KickoffOverflowManyWaiters) {
  // One producer, 40 consumers of the same address: kick-off list must
  // spill into dummy entries (capacity 8) and grant all in order.
  auto [producer, rp] = submit({core::out(0x5000)});
  EXPECT_TRUE(rp);
  std::vector<TaskId> consumers;
  for (int i = 0; i < 40; ++i) {
    auto [c, rc] = submit({core::in(0x5000)});
    EXPECT_FALSE(rc);
    consumers.push_back(c);
  }
  EXPECT_GT(dt_.stats().ko_dummy_allocations, 0u);
  auto ready = finish(producer);
  EXPECT_EQ(ready, consumers);  // all readers granted together, in order
  for (TaskId c : consumers) finish(c);
  EXPECT_TRUE(dt_.empty());
}

TEST_F(ResolverTest, SubmitStallsOnFullDependenceTable) {
  // Rebuild with a tiny DT: 2 slots.
  DependenceTable small({2, 8});
  Resolver resolver(tp_, small);
  TaskDescriptor td;
  td.params = {core::in(0x1), core::in(0x2), core::in(0x3)};
  auto ins = tp_.insert(td);
  ASSERT_TRUE(ins.has_value());
  auto sub = resolver.submit(ins->id);
  EXPECT_TRUE(sub.stalled);
  EXPECT_EQ(sub.params_done, 2u);  // third parameter had no space
  // Retry of the failed parameter after space frees succeeds and the task
  // ends up with the same state as an unstalled submission.
  auto hit = small.lookup(0x1);
  ASSERT_TRUE(hit.index.has_value());
  // simulate: a finished task frees 0x1 (no waiters)
  small.erase(*hit.index);
  auto pr = resolver.process_param(ins->id, td.params[2]);
  EXPECT_EQ(pr.outcome, Resolver::ParamOutcome::kGranted);
  auto fin = resolver.finalize_new_task(ins->id);
  EXPECT_TRUE(fin.ready);
}

TEST_F(ResolverTest, FinishUntrackedAddressThrows) {
  TaskDescriptor td;
  td.params = {core::in(0x77)};
  auto ins = tp_.insert(td);
  ASSERT_TRUE(ins.has_value());
  // Finishing without submitting: address untracked.
  EXPECT_THROW((void)resolver_.finish(ins->id), std::logic_error);
}

TEST_F(ResolverTest, CostsAccumulateAcrossParams) {
  TaskDescriptor td;
  td.params = {core::in(0x1), core::in(0x2), core::in(0x3)};
  auto ins = tp_.insert(td);
  ASSERT_TRUE(ins.has_value());
  auto sub = resolver_.submit(ins->id);
  EXPECT_TRUE(sub.ready);
  // At least one table access per parameter plus the TD read and DC check.
  EXPECT_GE(sub.cost.total(), 3u + 2u);
}

TEST_F(ResolverTest, StatsCountHazards) {
  auto [w, a] = submit({core::out(0x42)});
  EXPECT_TRUE(a);  // granted immediately
  submit({core::in(0x42)});   // RAW
  submit({core::out(0x42)});  // WAW
  auto [r2, d] = submit({core::in(0x99)});
  EXPECT_TRUE(d);  // granted immediately
  submit({core::out(0x99)});  // WAR
  const auto& st = resolver_.stats();
  EXPECT_EQ(st.raw_hazards, 1u);
  EXPECT_EQ(st.waw_hazards, 1u);
  EXPECT_EQ(st.war_hazards, 1u);
  (void)w;
  (void)r2;
}

}  // namespace
}  // namespace nexuspp
