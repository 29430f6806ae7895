#include "hw/memory.hpp"

#include <algorithm>
#include <stdexcept>

namespace nexuspp::hw {

void MemoryConfig::validate() const {
  if (banks == 0) throw std::invalid_argument("Memory: banks must be >= 1");
  if (chunk_bytes == 0) {
    throw std::invalid_argument("Memory: chunk_bytes must be >= 1");
  }
  if (chunk_latency <= 0) {
    throw std::invalid_argument("Memory: chunk_latency must be positive");
  }
}

Memory::Memory(sim::Simulator& sim, MemoryConfig config)
    : sim_(&sim), config_(config) {
  config_.validate();
  if (config_.contention == ContentionModel::kPorts) {
    ports_ = std::make_unique<sim::Semaphore>(sim, config_.banks);
  } else if (config_.contention == ContentionModel::kBanked) {
    banks_.reserve(config_.banks);
    for (std::uint32_t b = 0; b < config_.banks; ++b) {
      banks_.push_back(std::make_unique<sim::Semaphore>(sim, 1));
    }
  }
}

sim::Time Memory::transfer_time(std::uint64_t bytes) const noexcept {
  if (bytes == 0) return 0;
  const std::uint64_t chunks =
      (bytes + config_.chunk_bytes - 1) / config_.chunk_bytes;
  return static_cast<sim::Time>(chunks) * config_.chunk_latency;
}

void Memory::enter_service() noexcept {
  ++in_service_;
  stats_.max_concurrency = std::max(stats_.max_concurrency, in_service_);
}

sim::Co<void> Memory::transfer(std::uint64_t addr, std::uint64_t bytes) {
  if (bytes == 0) co_return;
  const sim::Time raw = transfer_time(bytes);
  ++stats_.transfers;

  switch (config_.contention) {
    case ContentionModel::kNone:
      enter_service();
      co_await sim_->delay(raw);
      leave_service();
      break;
    case ContentionModel::kPorts: {
      const sim::Time started = sim_->now();
      co_await ports_->acquire();
      stats_.contention_wait += sim_->now() - started;
      enter_service();
      co_await sim_->delay(raw);
      leave_service();
      ports_->release();
      break;
    }
    case ContentionModel::kBanked: {
      // Chunks are striped across banks starting at the chunk the address
      // maps to; each bank serializes its own accesses.
      const std::uint64_t first = addr / config_.chunk_bytes;
      const std::uint64_t end =
          first + (bytes + config_.chunk_bytes - 1) / config_.chunk_bytes;
      for (std::uint64_t chunk = first; chunk < end; ++chunk) {
        auto& bank = *banks_[chunk % config_.banks];
        const sim::Time started = sim_->now();
        co_await bank.acquire();
        stats_.contention_wait += sim_->now() - started;
        enter_service();
        co_await sim_->delay(config_.chunk_latency);
        leave_service();
        bank.release();
      }
      break;
    }
  }
}

}  // namespace nexuspp::hw
