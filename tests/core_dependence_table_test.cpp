// Tests for the Dependence Table: hash chains, entry lifecycle, kick-off
// lists, dummy-entry extension and promotion, capacity behaviour, and a
// randomized differential check of the flat kick-off rings and free list
// against a per-entry-deque reference model.

#include <gtest/gtest.h>

#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/dependence_table.hpp"
#include "util/rng.hpp"

namespace nexuspp {
namespace {

using core::Addr;
using core::DependenceTable;
using core::DependenceTableConfig;
using core::TaskId;
using Index = DependenceTable::Index;

TEST(DependenceTableConfig, Validation) {
  EXPECT_THROW((DependenceTableConfig{0, 8}.validate()),
               std::invalid_argument);
  EXPECT_THROW((DependenceTableConfig{16, 1}.validate()),
               std::invalid_argument);
  EXPECT_NO_THROW((DependenceTableConfig{16, 2}.validate()));

  // The kick-off ids live in one capacity x kick_off_capacity table whose
  // offsets must fit the 32-bit Index: the largest product passes, one
  // more id fails, and so does a product that overflows 32 bits itself.
  EXPECT_NO_THROW((DependenceTableConfig{65536, 65535}.validate()));
  EXPECT_THROW((DependenceTableConfig{65536, 65536}.validate()),
               std::invalid_argument);
  EXPECT_THROW((DependenceTableConfig{16, 0xFFFF'FFFFu}.validate()),
               std::invalid_argument);
  try {
    DependenceTableConfig{4096, 1u << 20}.validate();
    ADD_FAILURE() << "oversized kick_off_capacity accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kick_off_capacity"),
              std::string::npos)
        << e.what();
  }
  // The constructor rejects it before allocating anything.
  EXPECT_THROW((DependenceTable({4096, 1u << 20})), std::invalid_argument);
}

TEST(DependenceTable, InsertLookupEraseRoundTrip) {
  DependenceTable dt({64, 8});
  auto miss = dt.lookup(0x1A);
  EXPECT_FALSE(miss.index.has_value());
  EXPECT_EQ(miss.cost.reads, 1u);  // even a miss costs one access

  auto ins = dt.insert(0x1A, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  EXPECT_EQ(dt.addr_of(*ins.index), 0x1Au);
  EXPECT_EQ(dt.size_of(*ins.index), 4u);
  EXPECT_TRUE(dt.is_out(*ins.index));
  EXPECT_EQ(dt.readers(*ins.index), 0u);
  EXPECT_FALSE(dt.writer_waits(*ins.index));

  auto hit = dt.lookup(0x1A);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_EQ(*hit.index, *ins.index);

  dt.erase(*ins.index);
  EXPECT_FALSE(dt.lookup(0x1A).index.has_value());
  EXPECT_TRUE(dt.empty());
}

TEST(DependenceTable, FieldUpdates) {
  DependenceTable dt({16, 8});
  auto ins = dt.insert(0x2C, 16, false);
  ASSERT_TRUE(ins.index.has_value());
  const Index i = *ins.index;
  dt.set_readers(i, 1);
  dt.add_reader(i);
  EXPECT_EQ(dt.readers(i), 2u);
  dt.remove_reader(i);
  dt.remove_reader(i);
  EXPECT_EQ(dt.readers(i), 0u);
  EXPECT_THROW(dt.remove_reader(i), std::logic_error);
  dt.set_writer_waits(i, true);
  EXPECT_TRUE(dt.writer_waits(i));
  dt.set_is_out(i, true);
  EXPECT_TRUE(dt.is_out(i));
}

TEST(DependenceTable, ManyAddressesChainAndResolve) {
  // 16-slot table with 16 live addresses: every slot used; all lookups must
  // still find the right entry through the chains.
  DependenceTable dt({16, 8});
  std::vector<Index> idx;
  for (Addr a = 0; a < 16; ++a) {
    auto ins = dt.insert(0x1000 + a * 0x40, 4, false);
    ASSERT_TRUE(ins.index.has_value()) << a;
    idx.push_back(*ins.index);
  }
  EXPECT_EQ(dt.live_slot_count(), 16u);
  for (Addr a = 0; a < 16; ++a) {
    auto hit = dt.lookup(0x1000 + a * 0x40);
    ASSERT_TRUE(hit.index.has_value());
    EXPECT_EQ(dt.addr_of(*hit.index), 0x1000 + a * 0x40);
  }
  auto ins = dt.insert(0x9999, 4, false);
  EXPECT_FALSE(ins.index.has_value());  // full
}

TEST(DependenceTable, EraseMiddleOfHashChain) {
  // Force collisions by using a 1-slot... capacity must cover entries, so
  // use a table of 8 slots and insert addresses until two share a bucket.
  DependenceTable dt({8, 8});
  std::vector<Addr> addrs;
  std::vector<Index> indices;
  for (Addr a = 1; a <= 8; ++a) {
    const Addr addr = a * 0x33;
    auto ins = dt.insert(addr, 4, false);
    ASSERT_TRUE(ins.index.has_value());
    addrs.push_back(addr);
    indices.push_back(*ins.index);
  }
  // Erase in an interleaved order; all remaining entries must stay findable.
  for (std::size_t victim : {1u, 3u, 5u}) {
    dt.erase(indices[victim]);
  }
  std::set<std::size_t> gone{1u, 3u, 5u};
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    auto hit = dt.lookup(addrs[i]);
    if (gone.count(i)) {
      EXPECT_FALSE(hit.index.has_value()) << i;
    } else {
      ASSERT_TRUE(hit.index.has_value()) << i;
      EXPECT_EQ(dt.addr_of(*hit.index), addrs[i]);
    }
  }
}

TEST(DependenceTable, FreeIndicesRecycleFifo) {
  DependenceTable dt({4, 8});
  auto a = dt.insert(0x10, 4, true);
  auto b = dt.insert(0x20, 4, true);
  ASSERT_TRUE(a.index && b.index);
  EXPECT_EQ(*a.index, 0u);
  EXPECT_EQ(*b.index, 1u);
  dt.erase(*a.index);
  // Free list was [2, 3] and now gets 0 appended: the next two entries
  // take 2 then 3, and only then is 0 reused.
  auto c = dt.insert(0x30, 4, true);
  auto d = dt.insert(0x40, 4, true);
  auto e = dt.insert(0x50, 4, true);
  ASSERT_TRUE(c.index && d.index && e.index);
  EXPECT_EQ(*c.index, 2u);
  EXPECT_EQ(*d.index, 3u);
  EXPECT_EQ(*e.index, 0u);
}

TEST(DependenceTable, KickoffRingWrapsAroundInPlace) {
  // Three ids per slot: interleaved appends and pops walk the ring head
  // past the end of the slot's row several times without any dummy entry.
  DependenceTable dt({4, 3});
  auto ins = dt.insert(0x10, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  const Index i = *ins.index;
  TaskId next_in = 0;
  TaskId next_out = 0;
  for (int round = 0; round < 10; ++round) {
    while (dt.kickoff_length(i) < 3) {
      ASSERT_TRUE(dt.kickoff_append(i, next_in++).ok);
    }
    for (int pops = 0; pops < 2; ++pops) {
      auto pop = dt.kickoff_pop(i);
      ASSERT_TRUE(pop.task.has_value());
      EXPECT_EQ(*pop.task, next_out++);
      EXPECT_EQ(pop.parent, i);
    }
  }
  EXPECT_EQ(dt.stats().ko_dummy_allocations, 0u);
  EXPECT_EQ(dt.live_slot_count(), 1u);
  EXPECT_EQ(*dt.kickoff_front(i).task, next_out);
}

TEST(DependenceTable, KickoffBasicFifo) {
  DependenceTable dt({16, 8});
  auto ins = dt.insert(0xAA, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  EXPECT_TRUE(dt.kickoff_empty(i));
  for (TaskId t = 10; t < 15; ++t) {
    auto app = dt.kickoff_append(i, t);
    EXPECT_TRUE(app.ok);
  }
  EXPECT_EQ(dt.kickoff_length(i), 5u);
  EXPECT_FALSE(dt.kickoff_empty(i));
  auto front = dt.kickoff_front(i);
  ASSERT_TRUE(front.task.has_value());
  EXPECT_EQ(*front.task, 10u);
  for (TaskId t = 10; t < 15; ++t) {
    auto pop = dt.kickoff_pop(i);
    ASSERT_TRUE(pop.task.has_value());
    EXPECT_EQ(*pop.task, t);
    i = pop.parent;
  }
  EXPECT_TRUE(dt.kickoff_empty(i));
  auto empty_pop = dt.kickoff_pop(i);
  EXPECT_FALSE(empty_pop.task.has_value());
}

TEST(DependenceTable, KickoffOverflowAllocatesDummyEntries) {
  DependenceTable dt({16, 4});  // kick-off holds 4 ids per slot
  auto ins = dt.insert(0x1C, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  // 4 ids fit in the parent; the 5th spills into a dummy entry.
  for (TaskId t = 0; t < 4; ++t) EXPECT_TRUE(dt.kickoff_append(i, t).ok);
  EXPECT_EQ(dt.live_slot_count(), 1u);
  EXPECT_TRUE(dt.kickoff_append(i, 4).ok);
  EXPECT_EQ(dt.live_slot_count(), 2u);
  EXPECT_EQ(dt.stats().ko_dummy_allocations, 1u);
  EXPECT_EQ(dt.kickoff_length(i), 5u);
  EXPECT_EQ(dt.kickoff_chain_slots(i), 2u);

  // Pop everything back in FIFO order across the chain.
  for (TaskId t = 0; t < 5; ++t) {
    auto pop = dt.kickoff_pop(i);
    ASSERT_TRUE(pop.task.has_value());
    EXPECT_EQ(*pop.task, t);
    i = pop.parent;
  }
  EXPECT_TRUE(dt.kickoff_empty(i));
}

TEST(DependenceTable, LongKickoffChainGrowsAndDrains) {
  DependenceTable dt({64, 4});
  auto ins = dt.insert(0x1C, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  constexpr TaskId kTasks = 50;
  for (TaskId t = 0; t < kTasks; ++t) {
    ASSERT_TRUE(dt.kickoff_append(i, t).ok) << t;
  }
  EXPECT_EQ(dt.kickoff_length(i), kTasks);
  EXPECT_GT(dt.kickoff_chain_slots(i), 10u);

  for (TaskId t = 0; t < kTasks; ++t) {
    auto pop = dt.kickoff_pop(i);
    ASSERT_TRUE(pop.task.has_value());
    ASSERT_EQ(*pop.task, t);
    i = pop.parent;
  }
  EXPECT_TRUE(dt.kickoff_empty(i));
  // Draining promoted dummies: the parent moved off the original slot.
  EXPECT_NE(i, *ins.index);
  // Only the promoted parent remains live.
  EXPECT_EQ(dt.live_slot_count(), 1u);
  dt.erase(i);
  EXPECT_TRUE(dt.empty());
}

TEST(DependenceTable, PromotionFreesParentSlotEarly) {
  // Paper: "DT[0xC] can now be reused by other memory segments, even before
  // memory segment 0x1C is totally removed."
  DependenceTable dt({3, 2});  // tiny: parent + 2 extension slots max
  auto ins = dt.insert(0x1C, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  // With K=2 a slot keeps 1 id + continuation pointer once extended:
  // appends build parent=[0] -> d1=[1] -> d2=[2,3].
  ASSERT_TRUE(dt.kickoff_append(i, 0).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 1).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 2).ok);  // allocates first dummy slot
  EXPECT_EQ(dt.live_slot_count(), 2u);
  ASSERT_TRUE(dt.kickoff_append(i, 3).ok);  // allocates second dummy slot
  EXPECT_EQ(dt.live_slot_count(), 3u);
  EXPECT_EQ(dt.free_slot_count(), 0u);
  EXPECT_EQ(dt.kickoff_length(i), 4u);

  // Draining the parent's own list promotes eagerly and frees its slot.
  auto pop = dt.kickoff_pop(i);
  ASSERT_TRUE(pop.task.has_value());
  EXPECT_EQ(*pop.task, 0u);
  const Index promoted = pop.parent;
  EXPECT_NE(promoted, i);  // promotion happened on the first pop
  EXPECT_EQ(dt.free_slot_count(), 1u);

  // The promoted entry must still be findable by address.
  auto hit = dt.lookup(0x1C);
  ASSERT_TRUE(hit.index.has_value());
  EXPECT_EQ(*hit.index, promoted);

  // A different address can use the freed slot immediately.
  auto other = dt.insert(0x7777, 4, false);
  EXPECT_TRUE(other.index.has_value());
}

TEST(DependenceTable, PromotionPreservesEntryFields) {
  DependenceTable dt({8, 2});
  auto ins = dt.insert(0x1C, 64, false);
  ASSERT_TRUE(ins.index.has_value());
  Index i = *ins.index;
  dt.set_readers(i, 3);
  dt.set_writer_waits(i, true);
  ASSERT_TRUE(dt.kickoff_append(i, 0).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 1).ok);
  ASSERT_TRUE(dt.kickoff_append(i, 2).ok);  // spills

  auto pop = dt.kickoff_pop(i);
  pop = dt.kickoff_pop(pop.parent);  // drains parent -> promotes
  const Index promoted = pop.parent;
  EXPECT_EQ(dt.addr_of(promoted), 0x1Cu);
  EXPECT_EQ(dt.size_of(promoted), 64u);
  EXPECT_EQ(dt.readers(promoted), 3u);
  EXPECT_TRUE(dt.writer_waits(promoted));
  EXPECT_FALSE(dt.is_out(promoted));
}

TEST(DependenceTable, KickoffAppendFailsWhenPoolExhausted) {
  DependenceTable dt({2, 2});
  auto a = dt.insert(0x10, 4, true);
  auto b = dt.insert(0x20, 4, true);
  ASSERT_TRUE(a.index && b.index);
  // Parent list of 0x10 fills with 2 ids; third append needs a dummy slot
  // but the table is full.
  ASSERT_TRUE(dt.kickoff_append(*a.index, 1).ok);
  ASSERT_TRUE(dt.kickoff_append(*a.index, 2).ok);
  auto fail = dt.kickoff_append(*a.index, 3);
  EXPECT_FALSE(fail.ok);
  // Failed append leaves the list untouched.
  EXPECT_EQ(dt.kickoff_length(*a.index), 2u);
  // After space frees, the same append succeeds (retry semantics).
  dt.erase(*b.index);
  EXPECT_TRUE(dt.kickoff_append(*a.index, 3).ok);
  EXPECT_EQ(dt.kickoff_length(*a.index), 3u);
}

TEST(DependenceTable, EraseNonEmptyKickoffThrows) {
  DependenceTable dt({8, 8});
  auto ins = dt.insert(0x10, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  ASSERT_TRUE(dt.kickoff_append(*ins.index, 1).ok);
  EXPECT_THROW(dt.erase(*ins.index), std::logic_error);
}

TEST(DependenceTable, BadIndexThrows) {
  DependenceTable dt({8, 8});
  EXPECT_THROW((void)dt.addr_of(0), std::out_of_range);   // invalid slot
  EXPECT_THROW((void)dt.addr_of(99), std::out_of_range);  // out of range
}

TEST(DependenceTable, LongestChainStatGrowsUnderLoad) {
  DependenceTable dt({256, 8});
  for (Addr a = 0; a < 200; ++a) {
    auto ins = dt.insert(0x4000 + a * 8, 4, false);
    ASSERT_TRUE(ins.index.has_value());
  }
  for (Addr a = 0; a < 200; ++a) {
    ASSERT_TRUE(dt.lookup(0x4000 + a * 8).index.has_value());
  }
  // 200 entries in 256 buckets: collisions are certain.
  EXPECT_GE(dt.stats().longest_hash_chain, 2u);
  EXPECT_EQ(dt.stats().max_live_slots, 200u);
}

TEST(DependenceTable, CostReceiptsAreSane) {
  DependenceTable dt({16, 8});
  auto ins = dt.insert(0x10, 4, true);
  ASSERT_TRUE(ins.index.has_value());
  EXPECT_GE(ins.cost.writes, 1u);
  auto hit = dt.lookup(0x10);
  EXPECT_GE(hit.cost.reads, 1u);
  auto app = dt.kickoff_append(*hit.index, 5);
  EXPECT_GE(app.cost.total(), 1u);
  auto pop = dt.kickoff_pop(*hit.index);
  EXPECT_GE(pop.cost.total(), 1u);
}

/// Regression: lookup records telemetry but is semantically const — it
/// must be callable on a genuinely-const table (the old implementation
/// const_cast its way around a non-mutable stats member: UB on a const
/// object).
TEST(DependenceTable, LookupOnConstTable) {
  DependenceTable dt({16, 8});
  ASSERT_TRUE(dt.insert(0x20, 4, false).index.has_value());
  const DependenceTable& view = dt;
  auto hit = view.lookup(0x20);
  EXPECT_TRUE(hit.index.has_value());
  EXPECT_TRUE(view.lookup(0x999).index == std::nullopt);
  EXPECT_EQ(view.stats().lookups, 2u);
  EXPECT_GE(view.stats().lookup_probes, 2u);
  EXPECT_GE(view.stats().longest_hash_chain, 1u);
}

// --- Differential model: flat kick-off rings vs per-entry deques -------------

/// The table's kick-off and free-list semantics in their original form: a
/// std::deque of ids per slot and a FIFO free list. Hash chains and entry
/// fields are left out; the test reaches entries through its own address
/// map and checks lookup() against it.
class ReferenceKickoffModel {
 public:
  ReferenceKickoffModel(std::uint32_t capacity, std::uint32_t width)
      : slots_(capacity), width_(width) {
    for (Index i = 0; i < capacity; ++i) free_.push_back(i);
  }

  std::optional<Index> insert() { return alloc(); }
  void erase(Index parent) { release(parent); }

  bool append(Index parent, TaskId task) {
    const Slot& p = slots_[parent];
    const Index tail = p.has_dummy ? p.last_dummy : parent;
    if (slots_[tail].ko.size() < width_) {
      push_back(tail, task);
      return true;
    }
    const auto dummy = alloc();
    if (!dummy) return false;
    push_back(*dummy, slots_[tail].ko.back());
    push_back(*dummy, task);
    slots_[tail].ko.pop_back();
    slots_[tail].ko_next = *dummy;
    slots_[parent].has_dummy = true;
    slots_[parent].last_dummy = *dummy;
    return true;
  }

  /// Oldest id and the parent index after any promotion.
  std::pair<std::optional<TaskId>, Index> pop(Index parent) {
    Slot& p = slots_[parent];
    if (p.ko.empty()) return {std::nullopt, parent};
    const TaskId task = p.ko.front();
    p.ko.pop_front();
    ++p.pops;
    if (!p.ko.empty() || !p.has_dummy) return {task, parent};
    // Promotion: the first extension becomes the parent, keeping its own
    // list; the old parent slot goes back on the free list.
    const Index first = p.ko_next;
    Slot& d = slots_[first];
    d.has_dummy = d.ko_next != DependenceTable::kInvalidIndex;
    d.last_dummy = d.has_dummy ? p.last_dummy : DependenceTable::kInvalidIndex;
    release(parent);
    return {task, first};
  }

  [[nodiscard]] std::optional<TaskId> front(Index parent) const {
    const auto& ko = slots_[parent].ko;
    return ko.empty() ? std::nullopt : std::optional<TaskId>(ko.front());
  }
  [[nodiscard]] bool empty(Index parent) const {
    return slots_[parent].ko.empty() && !slots_[parent].has_dummy;
  }
  [[nodiscard]] std::uint32_t length(Index parent) const {
    std::uint32_t total = 0;
    for (Index i = parent; i != DependenceTable::kInvalidIndex;
         i = slots_[i].ko_next) {
      total += static_cast<std::uint32_t>(slots_[i].ko.size());
    }
    return total;
  }
  [[nodiscard]] std::uint32_t chain_slots(Index parent) const {
    std::uint32_t total = 0;
    for (Index i = parent; i != DependenceTable::kInvalidIndex;
         i = slots_[i].ko_next) {
      ++total;
    }
    return total;
  }
  [[nodiscard]] std::uint32_t free_count() const {
    return static_cast<std::uint32_t>(free_.size());
  }
  /// Appends whose position in a fixed ring of `width` ids (head advanced
  /// by every pop since the slot was allocated) lies past the row's end —
  /// the wrap-around case the flat table must get right.
  [[nodiscard]] std::uint64_t wrapped_appends() const {
    return wrapped_appends_;
  }

 private:
  struct Slot {
    std::deque<TaskId> ko;
    Index ko_next = DependenceTable::kInvalidIndex;
    Index last_dummy = DependenceTable::kInvalidIndex;
    bool has_dummy = false;
    std::uint64_t pops = 0;
  };

  std::optional<Index> alloc() {
    if (free_.empty()) return std::nullopt;
    const Index i = free_.front();
    free_.pop_front();
    slots_[i] = Slot{};
    return i;
  }
  void release(Index i) {
    slots_[i] = Slot{};
    free_.push_back(i);
  }
  void push_back(Index i, TaskId task) {
    Slot& s = slots_[i];
    if (s.pops % width_ + s.ko.size() >= width_) ++wrapped_appends_;
    s.ko.push_back(task);
  }

  std::vector<Slot> slots_;
  std::deque<Index> free_;
  std::uint32_t width_;
  std::uint64_t wrapped_appends_ = 0;
};

/// Random inserts, appends, pops and erases on a handful of addresses (so
/// kick-off chains grow long and the table fills), compared step by step
/// with the reference model: every returned index and id, plus length,
/// chain slots, front, emptiness, lookup and the free count of every live
/// entry.
void run_kickoff_differential(std::uint32_t width, std::uint64_t seed) {
  SCOPED_TRACE("kick_off_capacity " + std::to_string(width) + ", seed " +
               std::to_string(seed));
  constexpr std::uint32_t kCapacity = 40;
  constexpr std::size_t kMaxAddresses = 6;
  DependenceTable dt({kCapacity, width});
  ReferenceKickoffModel ref(kCapacity, width);
  util::Rng rng(seed);
  std::map<Addr, Index> parents;
  Addr next_addr = 0x1000;
  TaskId next_task = 0;
  std::uint64_t promotions = 0;  ///< pops that moved a parent

  const auto check_all = [&](int step) {
    ASSERT_EQ(dt.free_slot_count(), ref.free_count()) << "step " << step;
    for (const auto& [addr, parent] : parents) {
      ASSERT_EQ(dt.lookup(addr).index, std::optional<Index>(parent))
          << "step " << step;
      ASSERT_EQ(dt.kickoff_length(parent), ref.length(parent))
          << "step " << step;
      ASSERT_EQ(dt.kickoff_chain_slots(parent), ref.chain_slots(parent))
          << "step " << step;
      ASSERT_EQ(dt.kickoff_front(parent).task, ref.front(parent))
          << "step " << step;
      ASSERT_EQ(dt.kickoff_empty(parent), ref.empty(parent))
          << "step " << step;
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (parents.empty() || (roll < 10 && parents.size() < kMaxAddresses)) {
      const Addr addr = next_addr;
      next_addr += 0x40;
      const auto got = dt.insert(addr, 4, true).index;
      ASSERT_EQ(got, ref.insert()) << "step " << step;
      if (got) parents.emplace(addr, *got);
    } else {
      auto it = std::next(parents.begin(),
                          static_cast<std::ptrdiff_t>(
                              rng.below(parents.size())));
      Index& parent = it->second;
      if (roll < 62) {
        const TaskId task = next_task++;
        const auto app = dt.kickoff_append(parent, task);
        ASSERT_EQ(app.ok, ref.append(parent, task)) << "step " << step;
        ASSERT_FALSE(app.structural);
      } else if (dt.kickoff_empty(parent)) {
        dt.erase(parent);
        ref.erase(parent);
        parents.erase(it);
      } else {
        const auto pop = dt.kickoff_pop(parent);
        const auto [task, new_parent] = ref.pop(parent);
        ASSERT_EQ(pop.task, task) << "step " << step;
        ASSERT_EQ(pop.parent, new_parent) << "step " << step;
        promotions += pop.parent != parent;
        parent = pop.parent;
      }
    }
    check_all(step);
    if (testing::Test::HasFatalFailure()) return;
  }

  // Drain everything: FIFO order holds across every chain to the end.
  for (auto& entry : parents) {
    Index& parent = entry.second;
    for (;;) {
      const auto pop = dt.kickoff_pop(parent);
      const auto [task, new_parent] = ref.pop(parent);
      ASSERT_EQ(pop.task, task);
      ASSERT_EQ(pop.parent, new_parent);
      promotions += pop.parent != parent;
      parent = pop.parent;
      if (!pop.task) break;
    }
    dt.erase(parent);
    ref.erase(parent);
  }
  EXPECT_TRUE(dt.empty());
  EXPECT_EQ(dt.free_slot_count(), kCapacity);

  // The run reached the cases the model exists for.
  EXPECT_GT(ref.wrapped_appends(), 0u);
  EXPECT_GT(dt.stats().ko_dummy_allocations, 0u);
  EXPECT_GT(promotions, 0u);
}

TEST(DependenceTableDifferential, KickoffRingsMatchDequeModel) {
  for (const std::uint32_t width : {2u, 3u, 8u, 32u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_kickoff_differential(width, seed);
      if (HasFatalFailure()) return;
    }
  }
}

// --- Range mode ---------------------------------------------------------------

DependenceTableConfig range_cfg(std::uint32_t capacity = 64) {
  DependenceTableConfig cfg;
  cfg.capacity = capacity;
  cfg.match_mode = core::MatchMode::kRange;
  return cfg;
}

TEST(DependenceTableRange, OverlappingFindsPartialOverlaps) {
  DependenceTable dt(range_cfg());
  auto a = dt.insert(0x1000, 64, true, 1);   // [0x1000, 0x1040)
  auto b = dt.insert(0x1040, 64, false, 2);  // [0x1040, 0x1080)
  auto c = dt.insert(0x2000, 64, true, 3);   // far away
  ASSERT_TRUE(a.index && b.index && c.index);

  // Query straddling the tail of `a` only.
  auto hit = dt.overlapping(0x1020, 32);
  ASSERT_EQ(hit.indices.size(), 1u);
  EXPECT_EQ(hit.indices[0], *a.index);
  EXPECT_GE(hit.cost.reads, 1u);

  // Query spanning both adjacent entries.
  hit = dt.overlapping(0x1030, 0x20);
  ASSERT_EQ(hit.indices.size(), 2u);  // ascending base order
  EXPECT_EQ(hit.indices[0], *a.index);
  EXPECT_EQ(hit.indices[1], *b.index);

  // Adjacency is not overlap.
  EXPECT_TRUE(dt.overlapping(0x1080, 64).indices.empty());
  EXPECT_TRUE(dt.overlapping(0x0FC0, 0x40).indices.empty());
}

TEST(DependenceTableRange, DuplicateBasesCoexistAndOwnerLookupResolves) {
  DependenceTable dt(range_cfg());
  ASSERT_TRUE(dt.insert(0x5000, 64, true, 7).index.has_value());
  ASSERT_TRUE(dt.insert(0x5000, 32, false, 9).index.has_value());

  auto o7 = dt.lookup_owned(0x5000, 7);
  auto o9 = dt.lookup_owned(0x5000, 9);
  ASSERT_TRUE(o7.index && o9.index);
  EXPECT_NE(*o7.index, *o9.index);
  EXPECT_EQ(dt.size_of(*o7.index), 64u);
  EXPECT_EQ(dt.size_of(*o9.index), 32u);
  EXPECT_EQ(dt.owner_of(*o7.index), 7u);
  EXPECT_FALSE(dt.lookup_owned(0x5000, 8).index.has_value());

  // Both show up in an overlap query; erasing one leaves the other.
  EXPECT_EQ(dt.overlapping(0x5000, 8).indices.size(), 2u);
  dt.erase(*o9.index);
  auto hit = dt.overlapping(0x5000, 8);
  ASSERT_EQ(hit.indices.size(), 1u);
  EXPECT_EQ(hit.indices[0], *o7.index);
}

TEST(DependenceTableRange, IntervalIndexSurvivesDummyPromotion) {
  DependenceTableConfig cfg = range_cfg();
  cfg.kick_off_capacity = 2;
  DependenceTable dt(cfg);
  auto ins = dt.insert(0x6000, 64, true, 1);
  ASSERT_TRUE(ins.index.has_value());
  // Overflow the 2-slot kick-off list so a dummy entry chains on.
  for (TaskId t = 10; t < 15; ++t) {
    ASSERT_TRUE(dt.kickoff_append(*ins.index, t).ok);
  }
  ASSERT_GT(dt.stats().ko_dummy_allocations, 0u);

  // Drain the parent's own list: the first pop that empties it promotes
  // the dummy, and the interval index must follow the move.
  auto idx = *ins.index;
  for (int pops = 0; pops < 5; ++pops) {
    auto pop = dt.kickoff_pop(idx);
    ASSERT_TRUE(pop.task.has_value());
    idx = pop.parent;
    auto hit = dt.overlapping(0x6000, 8);
    ASSERT_EQ(hit.indices.size(), 1u);
    EXPECT_EQ(hit.indices[0], idx);
    EXPECT_EQ(dt.owner_of(idx), 1u);  // owner survives promotion
  }
  dt.erase(idx);
  EXPECT_TRUE(dt.overlapping(0x6000, 8).indices.empty());
  EXPECT_TRUE(dt.empty());
}

TEST(DependenceTableRange, AppendNeedPredictsAppendOutcome) {
  DependenceTableConfig cfg = range_cfg(8);
  cfg.kick_off_capacity = 2;
  DependenceTable dt(cfg);
  auto ins = dt.insert(0x7000, 64, true, 1);
  ASSERT_TRUE(ins.index.has_value());

  auto need = dt.kickoff_append_need(*ins.index);
  EXPECT_FALSE(need.needs_slot);
  ASSERT_TRUE(dt.kickoff_append(*ins.index, 2).ok);
  ASSERT_TRUE(dt.kickoff_append(*ins.index, 3).ok);
  need = dt.kickoff_append_need(*ins.index);
  EXPECT_TRUE(need.needs_slot);  // list full: next append allocates a dummy
  EXPECT_FALSE(need.structural_fail);

  DependenceTableConfig classic = cfg;
  classic.allow_dummy_entries = false;
  DependenceTable nx(classic);
  auto ins2 = nx.insert(0x7000, 64, true, 1);
  ASSERT_TRUE(ins2.index.has_value());
  ASSERT_TRUE(nx.kickoff_append(*ins2.index, 2).ok);
  ASSERT_TRUE(nx.kickoff_append(*ins2.index, 3).ok);
  EXPECT_TRUE(nx.kickoff_append_need(*ins2.index).structural_fail);
}

TEST(DependenceTableRange, OverlappingThrowsInBaseAddrMode) {
  DependenceTable dt({16, 8});
  EXPECT_THROW((void)dt.overlapping(0x1000, 64), std::logic_error);
}

}  // namespace
}  // namespace nexuspp
