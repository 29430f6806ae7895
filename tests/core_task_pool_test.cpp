// Tests for the Task Pool: slot allocation, the FIFO free-index list,
// dummy-task chaining for wide parameter lists, dependence counters and
// parameter traversal.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/task_pool.hpp"

namespace nexuspp {
namespace {

using core::AccessMode;
using core::Param;
using core::TaskDescriptor;
using core::TaskId;
using core::TaskPool;
using core::TaskPoolConfig;

TaskDescriptor make_task(std::size_t n_params, std::uint64_t fn = 0xABCD,
                         core::Addr base = 0x1000) {
  TaskDescriptor td;
  td.fn = fn;
  for (std::size_t i = 0; i < n_params; ++i) {
    td.params.push_back(core::in(base + 64 * i, 4));
  }
  return td;
}

/// A task's parameters walked in place from its primary slot along the
/// dummy chain, and the number of descriptor slots visited.
struct Walked {
  std::vector<Param> params;
  std::size_t slots = 0;
};
Walked walk_params(const TaskPool& pool, TaskId id) {
  Walked out;
  for (TaskId slot = id; slot != core::kInvalidTask;
       slot = pool.slot_next_dummy(slot)) {
    const auto own = pool.slot_params(slot);
    out.params.insert(out.params.end(), own.begin(), own.end());
    ++out.slots;
  }
  return out;
}

TEST(TaskPoolConfig, Validation) {
  EXPECT_THROW((TaskPoolConfig{0, 8}.validate()), std::invalid_argument);
  EXPECT_THROW((TaskPoolConfig{16, 1}.validate()), std::invalid_argument);
  EXPECT_NO_THROW((TaskPoolConfig{16, 2}.validate()));

  // Parameters live in one capacity x max_params table whose offsets must
  // fit 32 bits: the largest product passes, one more parameter fails,
  // and so does a product that overflows 32 bits itself.
  EXPECT_NO_THROW((TaskPoolConfig{65536, 65535}.validate()));
  EXPECT_THROW((TaskPoolConfig{65536, 65536}.validate()),
               std::invalid_argument);
  EXPECT_THROW((TaskPoolConfig{16, 0xFFFF'FFFFu}.validate()),
               std::invalid_argument);
  try {
    TaskPoolConfig{4096, 1u << 20}.validate();
    ADD_FAILURE() << "oversized max_params accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_params"), std::string::npos)
        << e.what();
  }
  // The constructor rejects it before allocating anything.
  EXPECT_THROW((TaskPool({4096, 1u << 20})), std::invalid_argument);
}

TEST(TaskPool, SlotsNeededMatchesPaperExample) {
  TaskPool pool({1024, 8});
  // Table I: a task with 10 parameters occupies 2 descriptors.
  EXPECT_EQ(pool.slots_needed(10), 2u);
  EXPECT_EQ(pool.slots_needed(8), 1u);
  EXPECT_EQ(pool.slots_needed(0), 1u);
  EXPECT_EQ(pool.slots_needed(1), 1u);
  // Primary holds 7 + pointer; one dummy holds up to 8 -> 15 max in 2 slots.
  EXPECT_EQ(pool.slots_needed(15), 2u);
  EXPECT_EQ(pool.slots_needed(16), 3u);
  // Fig. 3: Tx with 2n outputs where a descriptor stores n=8: primary(7) +
  // dummy(7) + dummy(2) = 16 entries in 3 descriptors.
  EXPECT_EQ(pool.slots_needed(2 * 8), 3u);
}

TEST(TaskPool, SlotsNeededSmallDescriptor) {
  TaskPool pool({64, 2});
  EXPECT_EQ(pool.slots_needed(2), 1u);
  // primary: 1 + ptr; dummies hold 1 each except last holds up to 2.
  EXPECT_EQ(pool.slots_needed(3), 2u);
  EXPECT_EQ(pool.slots_needed(4), 3u);
  EXPECT_EQ(pool.slots_needed(5), 4u);
}

TEST(TaskPool, InsertAndReadBackSimple) {
  TaskPool pool({16, 8});
  auto td = make_task(3, 0xFEED);
  td.serial = 77;
  auto ins = pool.insert(td);
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(pool.fn(ins->id), 0xFEEDu);
  EXPECT_EQ(pool.serial(ins->id), 77u);
  EXPECT_EQ(pool.param_count(ins->id), 3u);
  EXPECT_EQ(pool.dummy_count(ins->id), 0u);
  const auto walked = walk_params(pool, ins->id);
  EXPECT_EQ(walked.params, td.params);
  EXPECT_EQ(walked.slots, 1u);  // one slot visited
  EXPECT_EQ(pool.used_slot_count(), 1u);
}

TEST(TaskPool, InsertWideTaskBuildsDummyChain) {
  TaskPool pool({16, 8});
  const auto td = make_task(10);
  auto ins = pool.insert(td);
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(pool.dummy_count(ins->id), 1u);  // paper: nD = 1 for 10 params
  EXPECT_EQ(pool.used_slot_count(), 2u);
  EXPECT_EQ(pool.stats().dummy_slots_allocated, 1u);

  const TaskId dummy = pool.slot_next_dummy(ins->id);
  ASSERT_NE(dummy, core::kInvalidTask);
  EXPECT_TRUE(pool.slot_is_dummy(dummy));
  EXPECT_FALSE(pool.slot_is_dummy(ins->id));

  const auto walked = walk_params(pool, ins->id);
  EXPECT_EQ(walked.params, td.params);  // order preserved across the chain
  EXPECT_EQ(walked.slots, 2u);          // two slots visited
}

TEST(TaskPool, SlotParamsWalkTheChainInPlace) {
  // Inserted from a span; walking slot_params along the dummy chain gives
  // back the list in order, one row per slot the descriptor owns.
  TaskPool pool({16, 4});
  const auto td = make_task(10, 0xF00D);
  auto ins = pool.insert(td.fn, 42, td.params);
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(pool.serial(ins->id), 42u);
  std::vector<Param> walked;
  std::vector<std::size_t> per_slot;
  for (TaskId slot = ins->id; slot != core::kInvalidTask;
       slot = pool.slot_next_dummy(slot)) {
    const auto own = pool.slot_params(slot);
    walked.insert(walked.end(), own.begin(), own.end());
    per_slot.push_back(own.size());
  }
  EXPECT_EQ(walked, td.params);
  EXPECT_EQ(per_slot, (std::vector<std::size_t>{3, 3, 4}));
  EXPECT_EQ(per_slot.size(), 1u + pool.dummy_count(ins->id));
  const TaskId dummy = pool.slot_next_dummy(ins->id);
  pool.free_task(ins->id);
  EXPECT_TRUE(pool.slot_params(ins->id).empty());
  EXPECT_TRUE(pool.slot_params(dummy).empty());
}

TEST(TaskPool, VeryWideTaskMultiDummyChain) {
  TaskPool pool({64, 8});
  const auto td = make_task(40);
  auto ins = pool.insert(td);
  ASSERT_TRUE(ins.has_value());
  // 40 params: primary 7, dummies 7+7+7+7+5 -> slots_needed = 1+5.
  EXPECT_EQ(pool.slots_needed(40), 6u);
  EXPECT_EQ(pool.used_slot_count(), 6u);
  const auto walked = walk_params(pool, ins->id);
  EXPECT_EQ(walked.params, td.params);
  EXPECT_EQ(walked.slots, 6u);
}

TEST(TaskPool, FreeReleasesWholeChain) {
  TaskPool pool({8, 8});
  auto ins = pool.insert(make_task(10));
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(pool.free_slot_count(), 6u);
  pool.free_task(ins->id);
  EXPECT_EQ(pool.free_slot_count(), 8u);
  EXPECT_TRUE(pool.empty());
  EXPECT_FALSE(pool.slot_used(ins->id));
}

TEST(TaskPool, InsertFailsWhenFullAndRecovers) {
  TaskPool pool({2, 8});
  auto a = pool.insert(make_task(2, 1, 0x100));
  auto b = pool.insert(make_task(2, 2, 0x200));
  ASSERT_TRUE(a && b);
  EXPECT_FALSE(pool.can_insert(1));
  auto c = pool.insert(make_task(1, 3, 0x300));
  EXPECT_FALSE(c.has_value());
  pool.free_task(a->id);
  auto d = pool.insert(make_task(1, 4, 0x400));
  EXPECT_TRUE(d.has_value());
}

TEST(TaskPool, WideInsertFailsWithoutEnoughChainSlots) {
  TaskPool pool({2, 8});
  // 10 params need 2 slots: fits. 16 params need 3: never fits.
  EXPECT_TRUE(pool.can_ever_insert(10));
  EXPECT_FALSE(pool.can_ever_insert(16));
  auto ins = pool.insert(make_task(16));
  EXPECT_FALSE(ins.has_value());
  EXPECT_TRUE(pool.empty());  // failed insert leaves no residue
}

TEST(TaskPool, FreeIndicesRecycleFifo) {
  TaskPool pool({4, 8});
  auto a = pool.insert(make_task(1, 1));
  auto b = pool.insert(make_task(1, 2));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->id, 0u);
  EXPECT_EQ(b->id, 1u);
  pool.free_task(a->id);
  // Free list was [2, 3] and now gets 0 appended: next two allocations
  // take 2 then 3, and only then recycle 0.
  auto c = pool.insert(make_task(1, 3));
  auto d = pool.insert(make_task(1, 4));
  auto e = pool.insert(make_task(1, 5));
  ASSERT_TRUE(c && d && e);
  EXPECT_EQ(c->id, 2u);
  EXPECT_EQ(d->id, 3u);
  EXPECT_EQ(e->id, 0u);
}

TEST(TaskPool, DependenceCounterRoundTrip) {
  TaskPool pool({4, 8});
  auto ins = pool.insert(make_task(2));
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(pool.dependence_count(ins->id), 0u);
  pool.increment_dc(ins->id);
  pool.increment_dc(ins->id);
  EXPECT_EQ(pool.dependence_count(ins->id), 2u);
  auto dec = pool.decrement_dc(ins->id);
  EXPECT_EQ(dec.remaining, 1u);
  dec = pool.decrement_dc(ins->id);
  EXPECT_EQ(dec.remaining, 0u);
  EXPECT_THROW(pool.decrement_dc(ins->id), std::logic_error);
}

TEST(TaskPool, BusyFlag) {
  TaskPool pool({4, 8});
  auto ins = pool.insert(make_task(1));
  ASSERT_TRUE(ins.has_value());
  EXPECT_FALSE(pool.busy(ins->id));
  pool.set_busy(ins->id, true);
  EXPECT_TRUE(pool.busy(ins->id));
  pool.set_busy(ins->id, false);
  EXPECT_FALSE(pool.busy(ins->id));
}

TEST(TaskPool, ModeForFindsAcrossChain) {
  TaskPool pool({16, 8});
  TaskDescriptor td;
  for (std::size_t i = 0; i < 12; ++i) {
    td.params.push_back(Param{0x100 + 8 * i, 4,
                              i % 3 == 0 ? AccessMode::kOut
                                         : AccessMode::kIn});
  }
  auto ins = pool.insert(td);
  ASSERT_TRUE(ins.has_value());
  // Parameter 9 (0x100 + 72) is out (9 % 3 == 0) and lives in the dummy.
  auto ml = pool.mode_for(ins->id, 0x100 + 8 * 9);
  ASSERT_TRUE(ml.mode.has_value());
  EXPECT_EQ(*ml.mode, AccessMode::kOut);
  EXPECT_EQ(ml.cost.reads, 2u);  // walked into the dummy slot

  auto missing = pool.mode_for(ins->id, 0xDEAD);
  EXPECT_FALSE(missing.mode.has_value());
}

TEST(TaskPool, BadIdsThrow) {
  TaskPool pool({4, 8});
  EXPECT_THROW((void)pool.fn(0), std::out_of_range);   // unused slot
  EXPECT_THROW((void)pool.fn(99), std::out_of_range);  // out of range
  auto ins = pool.insert(make_task(10));             // with dummy chain
  ASSERT_TRUE(ins.has_value());
  const TaskId dummy = pool.slot_next_dummy(ins->id);
  EXPECT_THROW(pool.free_task(dummy), std::logic_error);
}

TEST(TaskPool, StatsTrackUsage) {
  TaskPool pool({8, 8});
  auto a = pool.insert(make_task(10));  // 2 slots
  auto b = pool.insert(make_task(1));   // 1 slot
  ASSERT_TRUE(a && b);
  EXPECT_EQ(pool.stats().max_used_slots, 3u);
  pool.free_task(a->id);
  pool.free_task(b->id);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.stats().max_used_slots, 3u);
}

TEST(TaskPool, TaskDescriptorSubmitWordsAndValidate) {
  auto td = make_task(4);
  EXPECT_EQ(td.submit_words(), 5u);  // 1 + params
  EXPECT_TRUE(td.validate().empty());
  td.params.push_back(td.params.front());  // duplicate address
  EXPECT_FALSE(td.validate().empty());
  TaskDescriptor zero;
  zero.params.push_back(Param{0x10, 0, AccessMode::kIn});
  EXPECT_FALSE(zero.validate().empty());
}

TEST(TaskPool, ChurnKeepsPoolConsistent) {
  TaskPool pool({32, 4});
  std::vector<TaskId> live;
  std::uint64_t fn = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t want = 1 + round % 9;  // up to 9 params -> chains
    auto ins = pool.insert(make_task(want, ++fn));
    if (ins) {
      live.push_back(ins->id);
      EXPECT_EQ(pool.param_count(ins->id), want);
    }
    if (live.size() > 5) {
      pool.free_task(live.front());
      live.erase(live.begin());
    }
  }
  for (TaskId id : live) pool.free_task(id);
  EXPECT_TRUE(pool.empty());
  EXPECT_EQ(pool.free_slot_count(), 32u);
}

}  // namespace
}  // namespace nexuspp
