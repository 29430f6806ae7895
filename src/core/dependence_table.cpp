#include "core/dependence_table.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace nexuspp::core {

void DependenceTableConfig::validate() const {
  if (capacity == 0) {
    throw std::invalid_argument("DependenceTable capacity must be >= 1");
  }
  if (kick_off_capacity < 2) {
    throw std::invalid_argument(
        "DependenceTable kick_off_capacity must be >= 2 (ids plus a "
        "continuation pointer)");
  }
  const std::uint64_t ids = std::uint64_t{capacity} * kick_off_capacity;
  if (ids > std::numeric_limits<DependenceTable::Index>::max()) {
    throw std::invalid_argument(
        "DependenceTable kick_off_capacity " +
        std::to_string(kick_off_capacity) + " x capacity " +
        std::to_string(capacity) + " = " + std::to_string(ids) +
        " kick-off ids overflows the flat table's 32-bit index");
  }
}

namespace {

DependenceTableConfig validated(const DependenceTableConfig& config) {
  config.validate();
  return config;
}

}  // namespace

DependenceTable::DependenceTable(DependenceTableConfig config)
    : config_(validated(config)),
      slots_(config_.capacity),
      ko_ids_(std::size_t{config_.capacity} * config_.kick_off_capacity),
      bucket_heads_(config_.capacity, kInvalidIndex),
      free_(config_.capacity) {}

std::size_t DependenceTable::bucket_of(Addr addr) const noexcept {
  // Fibonacci (multiplicative) hashing; bucket count equals table capacity.
  const std::uint64_t h = addr * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>((h >> 17) % bucket_heads_.size());
}

const DependenceTable::Slot& DependenceTable::parent_slot(Index index) const {
  if (index >= slots_.size() || !slots_[index].valid ||
      slots_[index].is_ko_dummy) {
    throw std::out_of_range("DependenceTable: bad parent index " +
                            std::to_string(index));
  }
  return slots_[index];
}

DependenceTable::Slot& DependenceTable::parent_slot(Index index) {
  return const_cast<Slot&>(std::as_const(*this).parent_slot(index));
}

// NEXUS_HOT_PATH
std::optional<DependenceTable::Index> DependenceTable::alloc_slot() {
  if (free_.empty()) return std::nullopt;
  const Index i = free_.pop();
  slots_[i] = Slot{};
  slots_[i].valid = true;
  stats_.max_live_slots = std::max(stats_.max_live_slots, live_slot_count());
  return i;
}

// NEXUS_HOT_PATH
void DependenceTable::free_slot(Index index) {
  slots_[index] = Slot{};
  free_.push(index);
}

std::size_t DependenceTable::ko_pos(Index index,
                                    std::uint32_t offset) const {
  const std::uint32_t width = config_.kick_off_capacity;
  // head < width and offset <= width: one subtraction wraps the sum.
  std::uint64_t pos = std::uint64_t{slots_[index].ko_head} + offset;
  if (pos >= width) pos -= width;
  return std::size_t{index} * width + static_cast<std::size_t>(pos);
}

void DependenceTable::ko_push_back(Index index, TaskId task) {
  Slot& s = slots_[index];
  assert(s.ko_count < config_.kick_off_capacity);
  ko_ids_[ko_pos(index, s.ko_count)] = task;
  ++s.ko_count;
}

TaskId DependenceTable::ko_pop_front(Index index) {
  Slot& s = slots_[index];
  assert(s.ko_count > 0);
  const TaskId task = ko_ids_[ko_pos(index, 0)];
  s.ko_head = s.ko_head + 1 == config_.kick_off_capacity ? 0 : s.ko_head + 1;
  --s.ko_count;
  return task;
}

TaskId DependenceTable::ko_pop_back(Index index) {
  Slot& s = slots_[index];
  assert(s.ko_count > 0);
  --s.ko_count;
  return ko_ids_[ko_pos(index, s.ko_count)];
}

void DependenceTable::index_erase(Addr addr, Index index) {
  if (config_.match_mode != MatchMode::kRange) return;
  for (auto [it, end] = by_base_.equal_range(addr); it != end; ++it) {
    if (it->second == index) {
      by_base_.erase(it);
      return;
    }
  }
  throw std::logic_error("DependenceTable: interval index out of sync");
}

void DependenceTable::index_replace(Addr addr, Index old_index,
                                    Index new_index) {
  if (config_.match_mode != MatchMode::kRange) return;
  for (auto [it, end] = by_base_.equal_range(addr); it != end; ++it) {
    if (it->second == old_index) {
      it->second = new_index;
      return;
    }
  }
  throw std::logic_error("DependenceTable: interval index out of sync");
}

DependenceTable::LookupResult DependenceTable::lookup(Addr addr) const {
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

DependenceTable::LookupResult DependenceTable::lookup_owned(
    Addr addr, TaskId owner) const {
  LookupResult out;
  std::uint32_t probes = 0;
  for (auto [it, end] = by_base_.equal_range(addr); it != end; ++it) {
    ++probes;
    if (slots_[it->second].owner == owner) {
      out.index = it->second;
      break;
    }
  }
  out.cost.reads = std::max<std::uint32_t>(probes, 1);
  ++stats_.lookups;
  stats_.lookup_probes += out.cost.reads;
  return out;
}

DependenceTable::OverlapResult DependenceTable::overlapping(
    Addr addr, std::uint32_t size) const {
  if (config_.match_mode != MatchMode::kRange) {
    throw std::logic_error(
        "DependenceTable::overlapping: interval index requires "
        "MatchMode::kRange");
  }
  OverlapResult out;
  std::uint32_t probes = 0;
  // Only entries with base in [addr - max_entry_size_, addr + size) can
  // intersect the query: anything earlier is too short to reach addr.
  const Addr scan_from = addr > max_entry_size_ ? addr - max_entry_size_ : 0;
  const Addr query_end = addr + size;
  for (auto it = by_base_.lower_bound(scan_from);
       it != by_base_.end() && it->first < query_end; ++it) {
    ++probes;
    const Slot& s = slots_[it->second];
    if (ranges_overlap(addr, size, s.addr, s.size)) {
      out.indices.push_back(it->second);
    }
  }
  out.cost.reads = std::max<std::uint32_t>(probes, 1);
  ++stats_.lookups;
  stats_.lookup_probes += out.cost.reads;
  return out;
}

DependenceTable::InsertResult DependenceTable::insert(Addr addr,
                                                      std::uint32_t size,
                                                      bool is_out,
                                                      TaskId owner) {
  InsertResult out;
  const auto slot = alloc_slot();
  if (!slot) {
    ++stats_.insert_failures;
    return out;
  }
  Slot& s = slots_[*slot];
  s.addr = addr;
  s.size = size;
  s.out = is_out;
  s.owner = owner;
  out.cost.writes += 1;
  if (config_.match_mode == MatchMode::kRange) {
    by_base_.emplace(addr, *slot);
    entry_sizes_.insert(size);
    max_entry_size_ = *entry_sizes_.rbegin();
  }

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

  ++stats_.inserts;
  out.index = *slot;
  return out;
}

Cost DependenceTable::erase(Index index) {
  Slot& s = parent_slot(index);
  if (s.ko_count != 0 || s.has_dummy) {
    throw std::logic_error(
        "DependenceTable::erase: kick-off list not empty");
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
  index_erase(s.addr, index);
  if (config_.match_mode == MatchMode::kRange) {
    // Retire this entry's size from the live census so the overlap-scan
    // window (and its probe-cost receipts) shrinks back once the largest
    // live entry is gone.
    const auto it = entry_sizes_.find(s.size);
    if (it == entry_sizes_.end()) {
      throw std::logic_error("DependenceTable: entry-size census out of sync");
    }
    entry_sizes_.erase(it);
    max_entry_size_ = entry_sizes_.empty() ? 0 : *entry_sizes_.rbegin();
  }
  free_slot(index);
  ++stats_.erases;
  return cost;
}

Addr DependenceTable::addr_of(Index index) const {
  return parent_slot(index).addr;
}
std::uint32_t DependenceTable::size_of(Index index) const {
  return parent_slot(index).size;
}
bool DependenceTable::is_out(Index index) const {
  return parent_slot(index).out;
}
std::uint32_t DependenceTable::readers(Index index) const {
  return parent_slot(index).rdrs;
}
bool DependenceTable::writer_waits(Index index) const {
  return parent_slot(index).ww;
}
TaskId DependenceTable::owner_of(Index index) const {
  return parent_slot(index).owner;
}

Cost DependenceTable::set_is_out(Index index, bool value) {
  parent_slot(index).out = value;
  return Cost{0, 1};
}
Cost DependenceTable::set_writer_waits(Index index, bool value) {
  parent_slot(index).ww = value;
  return Cost{0, 1};
}
Cost DependenceTable::add_reader(Index index) {
  ++parent_slot(index).rdrs;
  return Cost{1, 1};
}
Cost DependenceTable::remove_reader(Index index) {
  Slot& s = parent_slot(index);
  if (s.rdrs == 0) {
    throw std::logic_error("DependenceTable: readers counter underflow");
  }
  --s.rdrs;
  return Cost{1, 1};
}
Cost DependenceTable::set_readers(Index index, std::uint32_t value) {
  parent_slot(index).rdrs = value;
  return Cost{0, 1};
}

// NEXUS_HOT_PATH
DependenceTable::AppendResult DependenceTable::kickoff_append(Index parent,
                                                              TaskId task) {
  AppendResult out{true, false, {}};
  const Slot& p = parent_slot(parent);
  const Index tail_idx = p.has_dummy ? p.last_dummy : parent;
  out.cost.reads += 1;

  if (slots_[tail_idx].ko_count < config_.kick_off_capacity) {
    ko_push_back(tail_idx, task);
    out.cost.writes += 1;
    return out;
  }

  if (!config_.allow_dummy_entries) {
    // Classic Nexus: the list cannot grow, ever.
    ++stats_.ko_append_failures;
    out.ok = false;
    out.structural = true;
    return out;
  }

  // Tail list full: its last id moves into a fresh dummy entry together
  // with the new id, and the freed slot becomes the continuation pointer.
  const auto dummy = alloc_slot();
  if (!dummy) {
    ++stats_.ko_append_failures;
    out.ok = false;
    return out;
  }
  ++stats_.ko_dummy_allocations;
  Slot& d = slots_[*dummy];
  d.is_ko_dummy = true;
  d.addr = p.addr;
  ko_push_back(*dummy, ko_pop_back(tail_idx));
  ko_push_back(*dummy, task);
  slots_[tail_idx].ko_next = *dummy;
  Slot& p2 = slots_[parent];
  p2.has_dummy = true;
  p2.last_dummy = *dummy;
  out.cost.writes += 3;  // dummy slot, tail pointer, parent h_D/l_D

  stats_.max_ko_chain_slots =
      std::max(stats_.max_ko_chain_slots, kickoff_chain_slots(parent));
  return out;
}

// NEXUS_HOT_PATH
DependenceTable::AppendNeed DependenceTable::kickoff_append_need(
    Index parent) const {
  const Slot& p = parent_slot(parent);
  const Index tail_idx = p.has_dummy ? p.last_dummy : parent;
  if (slots_[tail_idx].ko_count < config_.kick_off_capacity) return {};
  if (!config_.allow_dummy_entries) return {false, true};
  return {true, false};
}

DependenceTable::Index DependenceTable::promote(Index parent, Cost& cost) {
  Slot& p = slots_[parent];
  assert(p.valid && !p.is_ko_dummy && p.has_dummy && p.ko_count == 0);
  const Index first_dummy = p.ko_next;
  assert(first_dummy != kInvalidIndex);
  Slot& d = slots_[first_dummy];

  // Copy the entry's data (address, size, mode, counters) onto the dummy,
  // which keeps its own kick-off row and becomes the new parent.
  d.is_ko_dummy = false;
  d.addr = p.addr;
  d.size = p.size;
  d.out = p.out;
  d.rdrs = p.rdrs;
  d.ww = p.ww;
  d.owner = p.owner;
  d.has_dummy = d.ko_next != kInvalidIndex;
  d.last_dummy = d.has_dummy ? p.last_dummy : kInvalidIndex;
  cost.reads += 1;
  cost.writes += 1;

  // Splice the new parent into the hash chain in place of the old one.
  d.prev = p.prev;
  d.next = p.next;
  if (p.prev != kInvalidIndex) {
    slots_[p.prev].next = first_dummy;
    cost.writes += 1;
  } else {
    bucket_heads_[bucket_of(p.addr)] = first_dummy;
    cost.writes += 1;
  }
  if (p.next != kInvalidIndex) {
    slots_[p.next].prev = first_dummy;
    cost.writes += 1;
  }

  index_replace(p.addr, parent, first_dummy);
  free_slot(parent);
  ++stats_.promotions;
  return first_dummy;
}

// NEXUS_HOT_PATH
DependenceTable::PopResult DependenceTable::kickoff_pop(Index parent) {
  PopResult out{std::nullopt, parent, {}};
  const Slot& p = parent_slot(parent);
  out.cost.reads += 1;
  if (p.ko_count == 0) {
    assert(!p.has_dummy);
    return out;
  }
  out.task = ko_pop_front(parent);
  out.cost.writes += 1;
  if (p.ko_count == 0 && p.has_dummy) {
    out.parent = promote(parent, out.cost);
  }
  return out;
}

// NEXUS_HOT_PATH
DependenceTable::PeekResult DependenceTable::kickoff_front(
    Index parent) const {
  PeekResult out;
  const Slot& p = parent_slot(parent);
  out.cost.reads += 1;
  if (p.ko_count != 0) out.task = ko_ids_[ko_pos(parent, 0)];
  return out;
}

// NEXUS_HOT_PATH
bool DependenceTable::kickoff_empty(Index parent) const {
  const Slot& p = parent_slot(parent);
  return p.ko_count == 0 && !p.has_dummy;
}

// NEXUS_HOT_PATH
std::uint32_t DependenceTable::kickoff_length(Index parent) const {
  const Slot* s = &parent_slot(parent);
  std::uint32_t total = 0;
  for (;;) {
    total += s->ko_count;
    if (s->ko_next == kInvalidIndex) break;
    s = &slots_[s->ko_next];
  }
  return total;
}

// NEXUS_HOT_PATH
std::uint32_t DependenceTable::kickoff_chain_slots(Index parent) const {
  const Slot* s = &parent_slot(parent);
  std::uint32_t total = 1;
  while (s->ko_next != kInvalidIndex) {
    ++total;
    s = &slots_[s->ko_next];
  }
  return total;
}

}  // namespace nexuspp::core
