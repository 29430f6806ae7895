#include "core/dependence_table.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

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

void DependenceTable::bad_parent(Index index) {
  throw std::out_of_range("DependenceTable: bad parent index " +
                          std::to_string(index));
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

void DependenceTable::index_insert(Addr addr, std::uint32_t size,
                                   Index index) {
  by_base_.emplace(addr, index);
  entry_sizes_.insert(size);
  max_entry_size_ = *entry_sizes_.rbegin();
}

void DependenceTable::index_retire(Addr addr, std::uint32_t size,
                                   Index index) {
  index_erase(addr, index);
  // Retire this entry's size from the live census so the overlap-scan
  // window (and its probe-cost receipts) shrinks back once the largest
  // live entry is gone.
  const auto it = entry_sizes_.find(size);
  if (it == entry_sizes_.end()) {
    throw std::logic_error("DependenceTable: entry-size census out of sync");
  }
  entry_sizes_.erase(it);
  max_entry_size_ = entry_sizes_.empty() ? 0 : *entry_sizes_.rbegin();
}

// NEXUS_HOT_PATH
DependenceTable::AppendResult DependenceTable::kickoff_append_full(
    Index parent, Index tail_idx, TaskId task) {
  AppendResult out{true, false, Cost{1, 0}};
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
  d.addr = slots_[parent].addr;
  ko_push_back(*dummy, ko_pop_back(tail_idx));
  ko_push_back(*dummy, task);
  slots_[tail_idx].ko_next = *dummy;
  Slot& p = slots_[parent];
  p.has_dummy = true;
  p.last_dummy = *dummy;
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
