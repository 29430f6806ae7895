#pragma once
// The Dependence Table: where Nexus++ stores the task graph (Table III of
// the paper).
//
// Every base address currently accessed by an in-flight task has one
// *parent* entry recording:
//   - the full address, size and current access mode (`isOut`),
//   - a readers counter (`Rdrs`) counting tasks currently reading it,
//   - a writer-waits flag (`ww`, set when a writer is queued behind
//     readers — the WAR hazard),
//   - a Kick-Off List of up to `kick_off_capacity` task IDs waiting for the
//     address, extensible at run time with *dummy entries*: extra slots
//     whose kick-off lists continue the parent's (the paper's h_D / l_D
//     fields; the last list slot becomes a pointer to the next extension).
//
// Entries that hash alike are chained (the paper's n_v / n_i / p_i linked
// list). This implementation keeps a bucket-head array next to the slot
// pool instead of coalescing chains into the slot array itself; the
// observable behaviour — fixed total capacity, chain walks costing one
// probe per visited entry, dummy entries competing for the same pool — is
// the same, without the relocation corner cases of coalesced hashing.
//
// Storage is flat and fixed at construction, like the hardware table: one
// slot array, one `capacity x kick_off_capacity` array of kick-off ids
// (slot i owns row i and uses it as a ring from its own head), and a
// preallocated FIFO ring of free slot indices. No operation in base-address
// mode touches the heap after construction.
//
// When a parent's own kick-off list drains while extensions exist, the
// parent's data is copied into the first extension slot, which becomes the
// new parent, and the old slot is freed immediately for reuse ("DT[0xC] can
// now be reused by other memory segments, even before memory segment 0x1C
// is totally removed"). Callers therefore receive the (possibly new) parent
// index back from every pop.
//
// Address-matching semantics (DependenceTableConfig::match_mode):
//
//   MatchMode::kBaseAddr (default) — the paper's Table III semantics: one
//   entry per distinct base address, found via `lookup(addr)`; accesses
//   with different bases never conflict, even when their byte ranges
//   overlap. Every published figure (Figs. 6-8, Table II) assumes this
//   mode; it is bit-identical — in behaviour and in Cost receipts — to the
//   pre-range implementation.
//
//   MatchMode::kRange — interval semantics: one entry per *in-flight
//   parameter access*, tagged with its owning task, found via
//   `overlapping(addr, size)`. The table additionally maintains a
//   base-sorted interval index plus the largest *currently live* entry
//   size, which bounds the backward scan (erase() shrinks the bound again
//   once the large entry retires), so an overlap query visits only the entries
//   whose base lies in [addr - max_size, addr + size); each visited entry
//   costs one probe, mirroring the hash-chain accounting of `lookup`.
//   `lookup`/`insert` keep working (inserts register in the interval
//   index); resolution logic lives in core::Resolver's range paths.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/index_fifo.hpp"
#include "core/types.hpp"

namespace nexuspp::core {

struct DependenceTableConfig {
  std::uint32_t capacity = 4096;         ///< total entry slots (Table IV: 4K)
  std::uint32_t kick_off_capacity = 8;   ///< task IDs per kick-off list
  /// Nexus++ feature: extend full kick-off lists with dummy entries. With
  /// this off the table behaves like the original Nexus: once a list is
  /// full, further dependants can never be recorded (structural failure).
  bool allow_dummy_entries = true;
  /// Address-matching semantics (see the header comment). kBaseAddr keeps
  /// the paper's behaviour and costs bit-identical; kRange enables the
  /// interval index behind `overlapping()`.
  MatchMode match_mode = MatchMode::kBaseAddr;

  /// Throws std::invalid_argument if the configuration is unusable: zero
  /// capacity, kick_off_capacity < 2, or a `capacity x kick_off_capacity`
  /// kick-off id table whose offsets overflow the 32-bit Index type.
  void validate() const;
};

class DependenceTable {
 public:
  using Index = std::uint32_t;
  static constexpr Index kInvalidIndex = 0xFFFF'FFFFu;

  explicit DependenceTable(DependenceTableConfig config);

  // --- Entry lifecycle ------------------------------------------------------

  struct LookupResult {
    std::optional<Index> index;
    Cost cost;  ///< one read per hash-chain probe
  };
  [[nodiscard]] LookupResult lookup(Addr addr) const;

  /// Range mode: the entry at exactly `addr` owned by `owner` (a finishing
  /// task locating its own access). Costs one probe per same-base entry
  /// visited.
  [[nodiscard]] LookupResult lookup_owned(Addr addr, TaskId owner) const;

  struct OverlapResult {
    std::vector<Index> indices;  ///< parents whose range intersects, by base
    Cost cost;                   ///< one read per interval-index entry visited
  };
  /// Range mode: every parent entry whose byte range intersects
  /// [addr, addr + size), in ascending base-address order. Throws
  /// std::logic_error in base-address mode (the interval index is not
  /// maintained there).
  [[nodiscard]] OverlapResult overlapping(Addr addr, std::uint32_t size) const;

  struct InsertResult {
    std::optional<Index> index;  ///< nullopt: table full, caller must stall
    Cost cost;
  };
  [[nodiscard]] InsertResult insert(Addr addr, std::uint32_t size,
                                    bool is_out, TaskId owner = kInvalidTask);

  /// Removes an entry whose kick-off list is empty.
  Cost erase(Index index);

  // --- Field access (parent entries) ---------------------------------------

  [[nodiscard]] Addr addr_of(Index index) const;
  [[nodiscard]] std::uint32_t size_of(Index index) const;
  [[nodiscard]] bool is_out(Index index) const;
  [[nodiscard]] std::uint32_t readers(Index index) const;
  [[nodiscard]] bool writer_waits(Index index) const;
  /// Task that registered the entry (range mode); kInvalidTask otherwise.
  [[nodiscard]] TaskId owner_of(Index index) const;

  Cost set_is_out(Index index, bool value);
  Cost set_writer_waits(Index index, bool value);
  Cost add_reader(Index index);
  Cost remove_reader(Index index);
  Cost set_readers(Index index, std::uint32_t value);

  // --- Kick-off list --------------------------------------------------------

  struct AppendResult {
    bool ok;  ///< false: no free slot for a needed dummy entry — stall
    /// True when the failure can never resolve by waiting (dummy entries
    /// disabled and the list is full) — the classic-Nexus limitation.
    bool structural = false;
    Cost cost;
  };
  [[nodiscard]] AppendResult kickoff_append(Index parent, TaskId task);

  struct AppendNeed {
    bool needs_slot = false;       ///< append would allocate a dummy entry
    bool structural_fail = false;  ///< dummies disabled and the list is full
  };
  /// Dry-run of kickoff_append: lets callers that must append to several
  /// entries atomically (the range-mode resolver) precheck slot demand and
  /// structural failures before mutating anything.
  [[nodiscard]] AppendNeed kickoff_append_need(Index parent) const;

  struct PopResult {
    std::optional<TaskId> task;
    Index parent;  ///< parent index after any dummy-entry promotion
    Cost cost;
  };
  /// Pops the oldest waiting task. Promotion of the first dummy entry (when
  /// the parent's own list drains) happens eagerly inside this call.
  [[nodiscard]] PopResult kickoff_pop(Index parent);

  struct PeekResult {
    std::optional<TaskId> task;
    Cost cost;
  };
  [[nodiscard]] PeekResult kickoff_front(Index parent) const;

  [[nodiscard]] bool kickoff_empty(Index parent) const;
  /// Total waiting tasks across the parent and all dummy extensions.
  [[nodiscard]] std::uint32_t kickoff_length(Index parent) const;
  /// Number of slots (parent + dummies) this entry's kick-off chain uses.
  [[nodiscard]] std::uint32_t kickoff_chain_slots(Index parent) const;

  // --- Capacity & statistics ------------------------------------------------

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return config_.capacity;
  }
  [[nodiscard]] MatchMode match_mode() const noexcept {
    return config_.match_mode;
  }
  [[nodiscard]] std::uint32_t free_slot_count() const noexcept {
    return free_.size();
  }
  [[nodiscard]] std::uint32_t live_slot_count() const noexcept {
    return config_.capacity - free_slot_count();
  }
  [[nodiscard]] bool empty() const noexcept {
    return live_slot_count() == 0;
  }

  struct Stats {
    std::uint64_t ko_dummy_allocations = 0;
    std::uint64_t lookups = 0;        ///< lookup/lookup_owned/overlapping calls
    std::uint64_t lookup_probes = 0;  ///< entries visited across all lookups
    std::uint32_t max_live_slots = 0;
    std::uint32_t longest_hash_chain = 0;  ///< max probes in one lookup

    /// Mean entries visited per lookup — the per-lookup cost the match-mode
    /// bench compares between base-address and range matching.
    [[nodiscard]] double avg_lookup_probes() const noexcept {
      return lookups == 0 ? 0.0
                          : static_cast<double>(lookup_probes) /
                                static_cast<double>(lookups);
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  /// Fixed-width entry; its kick-off ids live in row `index` of ko_ids_.
  struct Slot {
    Addr addr = 0;
    std::uint32_t size = 0;
    std::uint32_t rdrs = 0;
    TaskId owner = kInvalidTask;  ///< registering task (range mode only)
    Index next = kInvalidIndex;       ///< hash chain (parents only)
    Index prev = kInvalidIndex;       ///< hash chain (parents only)
    Index ko_next = kInvalidIndex;    ///< next kick-off extension slot
    Index last_dummy = kInvalidIndex; ///< parents: tail of extension chain
    std::uint32_t ko_head = 0;   ///< ring position of this slot's oldest id
    std::uint32_t ko_count = 0;  ///< ids queued in this slot's own row
    bool valid = false;
    bool is_ko_dummy = false;
    bool out = false;
    bool ww = false;
    bool has_dummy = false;
  };
  /// What a free slot holds. Slots are reset by copying it: `s = Slot{}`
  /// builds the temporary on the stack, and reloading it straddles the
  /// stores that just built it, which stalls until they reach the cache.
  static const Slot kEmptySlot;

  /// Throws std::out_of_range: `index` names no parent entry. Out of line
  /// like the other rare paths below: the dummy-entry allocation,
  /// promotion and the range-mode interval index.
  [[noreturn]] static void bad_parent(Index index);

  [[nodiscard]] std::size_t bucket_of(Addr addr) const noexcept;
  [[nodiscard]] const Slot& parent_slot(Index index) const;
  [[nodiscard]] Slot& parent_slot(Index index);
  [[nodiscard]] std::optional<Index> alloc_slot();
  void free_slot(Index index);
  /// Range mode: registers a new entry in the interval index and the
  /// live-size census.
  void index_insert(Addr addr, std::uint32_t size, Index index);
  /// Range mode: retires an erased entry from the index and the census.
  void index_retire(Addr addr, std::uint32_t size, Index index);
  /// Range mode: retarget (erase or re-point) the interval-index entry for
  /// `(addr, index)`. No-op in base-address mode.
  void index_erase(Addr addr, Index index);
  void index_replace(Addr addr, Index old_index, Index new_index);
  /// kickoff_append when the chain's tail list is full: the dummy entry
  /// (or the failure), charged with the caller's read of the tail.
  [[nodiscard]] AppendResult kickoff_append_full(Index parent, Index tail_idx,
                                                 TaskId task);
  /// Copies parent data into its first extension slot and frees the parent.
  Index promote(Index parent, Cost& cost);

  // Ring operations on one slot's kick-off row.
  /// Position in ko_ids_ of the id `offset` places after the slot's head.
  [[nodiscard]] std::size_t ko_pos(Index index, std::uint32_t offset) const;
  void ko_push_back(Index index, TaskId task);
  TaskId ko_pop_front(Index index);
  TaskId ko_pop_back(Index index);

  DependenceTableConfig config_;
  std::vector<Slot> slots_;
  /// capacity x kick_off_capacity ids; row i is slot i's kick-off ring.
  std::vector<TaskId> ko_ids_;
  std::vector<Index> bucket_heads_;
  IndexFifo free_;
  /// Range mode only: parents sorted by base address (duplicates allowed —
  /// one entry per in-flight access), plus the largest *currently live*
  /// entry size, which bounds how far back an overlap query must scan.
  /// `entry_sizes_` is the live-size census that lets erase() shrink the
  /// bound again: without it one large retired access would permanently
  /// widen every later scan window (and its probe-cost receipts).
  std::multimap<Addr, Index> by_base_;
  std::multiset<std::uint32_t> entry_sizes_;
  std::uint32_t max_entry_size_ = 0;
  /// Mutable: const lookups record telemetry (probe counts, chain maxima)
  /// without pretending the table changed.
  mutable Stats stats_;
};

// --- Inline fast paths -------------------------------------------------------
//
// Everything a base-address lookup, insert, erase and kick-off walk runs is
// defined here and forced inline, so the resolvers compile it into their
// own code: the exec-threads master runs Listing 2 for every parameter of
// every task, and an out-of-line call per accessor, its result returned
// through the stack, cost more than the table work. GCC's default limits
// at -O3 leave the larger bodies (Resolver::release_as_writer) out of line,
// hence the attribute. The rare paths stay in dependence_table.cpp.

inline constexpr DependenceTable::Slot DependenceTable::kEmptySlot{};

[[gnu::always_inline]]
inline std::size_t DependenceTable::bucket_of(Addr addr) const noexcept {
  // Fibonacci (multiplicative) hashing; bucket count equals table capacity.
  const std::uint64_t h = addr * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>((h >> 17) % bucket_heads_.size());
}

[[gnu::always_inline]]
inline const DependenceTable::Slot& DependenceTable::parent_slot(
    Index index) const {
  if (index >= slots_.size() || !slots_[index].valid ||
      slots_[index].is_ko_dummy) [[unlikely]] {
    bad_parent(index);
  }
  return slots_[index];
}

[[gnu::always_inline]]
inline DependenceTable::Slot& DependenceTable::parent_slot(Index index) {
  return const_cast<Slot&>(std::as_const(*this).parent_slot(index));
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline std::optional<DependenceTable::Index> DependenceTable::alloc_slot() {
  if (free_.empty()) return std::nullopt;
  const Index i = free_.pop();
  slots_[i] = kEmptySlot;
  slots_[i].valid = true;
  stats_.max_live_slots = std::max(stats_.max_live_slots, live_slot_count());
  return i;
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline void DependenceTable::free_slot(Index index) {
  slots_[index] = kEmptySlot;
  free_.push(index);
}

[[gnu::always_inline]]
inline std::size_t DependenceTable::ko_pos(Index index,
                                           std::uint32_t offset) const {
  const std::uint32_t width = config_.kick_off_capacity;
  // head < width and offset <= width: one subtraction wraps the sum.
  std::uint64_t pos = std::uint64_t{slots_[index].ko_head} + offset;
  if (pos >= width) pos -= width;
  return std::size_t{index} * width + static_cast<std::size_t>(pos);
}

[[gnu::always_inline]]
inline void DependenceTable::ko_push_back(Index index, TaskId task) {
  Slot& s = slots_[index];
  assert(s.ko_count < config_.kick_off_capacity);
  ko_ids_[ko_pos(index, s.ko_count)] = task;
  ++s.ko_count;
}

[[gnu::always_inline]]
inline TaskId DependenceTable::ko_pop_front(Index index) {
  Slot& s = slots_[index];
  assert(s.ko_count > 0);
  const TaskId task = ko_ids_[ko_pos(index, 0)];
  s.ko_head = s.ko_head + 1 == config_.kick_off_capacity ? 0 : s.ko_head + 1;
  --s.ko_count;
  return task;
}

[[gnu::always_inline]]
inline TaskId DependenceTable::ko_pop_back(Index index) {
  Slot& s = slots_[index];
  assert(s.ko_count > 0);
  --s.ko_count;
  return ko_ids_[ko_pos(index, s.ko_count)];
}

[[gnu::always_inline]]
inline DependenceTable::LookupResult DependenceTable::lookup(Addr addr) const {
  LookupResult out;
  std::uint32_t probes = 0;
  for (Index cur = bucket_heads_[bucket_of(addr)]; cur != kInvalidIndex;
       cur = slots_[cur].next) {
    ++probes;
    if (slots_[cur].addr == addr) {
      out.index = cur;
      break;
    }
  }
  // An empty bucket still costs one access to discover it is empty.
  out.cost.reads = std::max<std::uint32_t>(probes, 1);
  stats_.longest_hash_chain = std::max(stats_.longest_hash_chain, probes);
  ++stats_.lookups;
  stats_.lookup_probes += out.cost.reads;
  return out;
}

[[gnu::always_inline]]
inline DependenceTable::InsertResult DependenceTable::insert(
    Addr addr, std::uint32_t size, bool is_out, TaskId owner) {
  InsertResult out;
  const auto slot = alloc_slot();
  if (!slot) return out;
  Slot& s = slots_[*slot];
  s.addr = addr;
  s.size = size;
  s.out = is_out;
  s.owner = owner;
  out.cost.writes += 1;
  if (config_.match_mode == MatchMode::kRange) index_insert(addr, size, *slot);

  // Link at the head of the hash chain (one write to the head pointer,
  // one to the old head's prev link if present).
  const std::size_t bucket = bucket_of(addr);
  const Index old_head = bucket_heads_[bucket];
  s.next = old_head;
  if (old_head != kInvalidIndex) {
    slots_[old_head].prev = *slot;
    out.cost.writes += 1;
  }
  bucket_heads_[bucket] = *slot;
  out.cost.writes += 1;

  out.index = *slot;
  return out;
}

[[gnu::always_inline]]
inline Cost DependenceTable::erase(Index index) {
  Slot& s = parent_slot(index);
  if (s.ko_count != 0 || s.has_dummy) [[unlikely]] {
    throw_logic_error("DependenceTable::erase: kick-off list not empty");
  }
  Cost cost;
  // Unlink from the hash chain.
  if (s.prev != kInvalidIndex) {
    slots_[s.prev].next = s.next;
    cost.writes += 1;
  } else {
    bucket_heads_[bucket_of(s.addr)] = s.next;
    cost.writes += 1;
  }
  if (s.next != kInvalidIndex) {
    slots_[s.next].prev = s.prev;
    cost.writes += 1;
  }
  if (config_.match_mode == MatchMode::kRange) {
    index_retire(s.addr, s.size, index);
  }
  free_slot(index);
  return cost;
}

[[gnu::always_inline]]
inline Addr DependenceTable::addr_of(Index index) const {
  return parent_slot(index).addr;
}
[[gnu::always_inline]]
inline std::uint32_t DependenceTable::size_of(Index index) const {
  return parent_slot(index).size;
}
[[gnu::always_inline]]
inline bool DependenceTable::is_out(Index index) const {
  return parent_slot(index).out;
}
[[gnu::always_inline]]
inline std::uint32_t DependenceTable::readers(Index index) const {
  return parent_slot(index).rdrs;
}
[[gnu::always_inline]]
inline bool DependenceTable::writer_waits(Index index) const {
  return parent_slot(index).ww;
}
[[gnu::always_inline]]
inline TaskId DependenceTable::owner_of(Index index) const {
  return parent_slot(index).owner;
}

[[gnu::always_inline]]
inline Cost DependenceTable::set_is_out(Index index, bool value) {
  parent_slot(index).out = value;
  return Cost{0, 1};
}
[[gnu::always_inline]]
inline Cost DependenceTable::set_writer_waits(Index index, bool value) {
  parent_slot(index).ww = value;
  return Cost{0, 1};
}
[[gnu::always_inline]]
inline Cost DependenceTable::add_reader(Index index) {
  ++parent_slot(index).rdrs;
  return Cost{1, 1};
}
[[gnu::always_inline]]
inline Cost DependenceTable::remove_reader(Index index) {
  Slot& s = parent_slot(index);
  if (s.rdrs == 0) [[unlikely]] {
    throw_logic_error("DependenceTable: readers counter underflow");
  }
  --s.rdrs;
  return Cost{1, 1};
}
[[gnu::always_inline]]
inline Cost DependenceTable::set_readers(Index index, std::uint32_t value) {
  parent_slot(index).rdrs = value;
  return Cost{0, 1};
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline DependenceTable::AppendResult DependenceTable::kickoff_append(
    Index parent, TaskId task) {
  const Slot& p = parent_slot(parent);
  const Index tail_idx = p.has_dummy ? p.last_dummy : parent;
  if (slots_[tail_idx].ko_count < config_.kick_off_capacity) [[likely]] {
    ko_push_back(tail_idx, task);
    return {true, false, Cost{1, 1}};
  }
  return kickoff_append_full(parent, tail_idx, task);
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline DependenceTable::PopResult DependenceTable::kickoff_pop(Index parent) {
  PopResult out{std::nullopt, parent, {}};
  const Slot& p = parent_slot(parent);
  out.cost.reads += 1;
  if (p.ko_count == 0) {
    assert(!p.has_dummy);
    return out;
  }
  out.task = ko_pop_front(parent);
  out.cost.writes += 1;
  if (p.ko_count == 0 && p.has_dummy) [[unlikely]] {
    Cost promotion;
    out.parent = promote(parent, promotion);
    out.cost += promotion;
  }
  return out;
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline DependenceTable::PeekResult DependenceTable::kickoff_front(
    Index parent) const {
  PeekResult out;
  const Slot& p = parent_slot(parent);
  out.cost.reads += 1;
  if (p.ko_count != 0) out.task = ko_ids_[ko_pos(parent, 0)];
  return out;
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline bool DependenceTable::kickoff_empty(Index parent) const {
  const Slot& p = parent_slot(parent);
  return p.ko_count == 0 && !p.has_dummy;
}

}  // namespace nexuspp::core
