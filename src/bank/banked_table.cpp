#include "bank/banked_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace nexuspp::bank {

void BankedTableConfig::validate() const {
  table.validate();
  partition.validate();
  if (partition.banks > table.capacity) {
    throw std::invalid_argument(
        "BankedTableConfig: more banks than table entries");
  }
}

BankedTable::BankedTable(BankedTableConfig config)
    : config_(std::move(config)) {
  config_.validate();
  core::DependenceTableConfig per_bank = config_.table;
  per_bank.capacity = config_.per_bank_capacity();
  banks_.reserve(config_.partition.banks);
  for (std::uint32_t b = 0; b < config_.partition.banks; ++b) {
    banks_.emplace_back(per_bank);
  }
}

std::uint32_t BankedTable::live_slot_count() const noexcept {
  std::uint32_t live = 0;
  for (const auto& b : banks_) live += b.live_slot_count();
  return live;
}

core::DependenceTable::Stats BankedTable::aggregated_stats() const {
  core::DependenceTable::Stats out;
  for (const auto& b : banks_) {
    const auto& s = b.stats();
    out.ko_dummy_allocations += s.ko_dummy_allocations;
    out.lookups += s.lookups;
    out.lookup_probes += s.lookup_probes;
    out.max_live_slots = std::max(out.max_live_slots, s.max_live_slots);
    out.longest_hash_chain =
        std::max(out.longest_hash_chain, s.longest_hash_chain);
  }
  return out;
}

std::uint32_t BankedTable::peak_bank_live() const noexcept {
  std::uint32_t peak = 0;
  for (const auto& b : banks_) {
    peak = std::max(peak, b.stats().max_live_slots);
  }
  return peak;
}

double BankedTable::occupancy_imbalance() const noexcept {
  std::uint64_t sum = 0;
  std::uint32_t peak = 0;
  for (const auto& b : banks_) {
    sum += b.stats().max_live_slots;
    peak = std::max(peak, b.stats().max_live_slots);
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(banks_.size());
  return static_cast<double>(peak) / mean;
}

}  // namespace nexuspp::bank
