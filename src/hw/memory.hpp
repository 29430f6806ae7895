#pragma once
// Off-chip memory model (Table IV of the paper).
//
// Timing: 12 ns per 128-byte chunk. Contention: the memory has 32 banks
// with one read/write port each, so "no more than 32 tasks can access the
// memory at a given time" — modeled by default as a counting semaphore of
// one permit per bank held for the whole transfer (the paper's coarse
// rule). A finer-grained banked mode (chunks striped over per-bank queues)
// is available as an extension for sensitivity studies.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/co.hpp"
#include "sim/semaphore.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace nexuspp::hw {

enum class ContentionModel : std::uint8_t {
  kNone,    ///< contention-free: transfers only pay raw latency
  kPorts,   ///< paper default: at most `banks` concurrent transfers
  kBanked,  ///< extension: chunks striped over per-bank serial queues
};

struct MemoryConfig {
  std::uint32_t banks = 32;
  std::uint32_t chunk_bytes = 128;
  sim::Time chunk_latency = sim::ns(12);
  ContentionModel contention = ContentionModel::kPorts;

  void validate() const;
};

class Memory {
 public:
  Memory(sim::Simulator& sim, MemoryConfig config);

  /// Raw (contention-free) duration of a `bytes`-sized transfer.
  [[nodiscard]] sim::Time transfer_time(std::uint64_t bytes) const noexcept;

  /// Performs a transfer starting at `addr` (the address only matters for
  /// bank striping in kBanked mode). Completes after the modeled latency,
  /// including any waiting for a free port/bank.
  [[nodiscard]] sim::Co<void> transfer(std::uint64_t addr,
                                       std::uint64_t bytes);

  struct Stats {
    std::uint64_t transfers = 0;
    sim::Time contention_wait = 0;  ///< time spent waiting for ports/banks
    /// Most transfers in service at once: holding a port or a bank, or
    /// (kNone) under way. Transfers waiting for a port do not count.
    std::int64_t max_concurrency = 0;

    [[nodiscard]] friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const MemoryConfig& config() const noexcept {
    return config_;
  }

 private:
  /// A transfer starts or stops being served (see Stats::max_concurrency).
  void enter_service() noexcept;
  void leave_service() noexcept { --in_service_; }

  sim::Simulator* sim_;
  MemoryConfig config_;
  std::unique_ptr<sim::Semaphore> ports_;  ///< kPorts mode
  std::vector<std::unique_ptr<sim::Semaphore>> banks_;  ///< kBanked mode
  Stats stats_;
  std::int64_t in_service_ = 0;
};

}  // namespace nexuspp::hw
