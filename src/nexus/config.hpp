#pragma once
// Full configuration of a simulated Nexus++ multicore system — every
// parameter of the paper's Table IV, fully configurable (one of the four
// stated contributions: "its parameters are fully configurable").

#include <cstdint>

#include "core/dependence_table.hpp"
#include "core/task_pool.hpp"
#include "hw/bus.hpp"
#include "hw/memory.hpp"
#include "obs/timeline.hpp"
#include "sim/time.hpp"
#include "util/table.hpp"

namespace nexuspp::nexus {

struct NexusConfig {
  // --- System shape --------------------------------------------------------
  std::uint32_t num_workers = 4;     ///< worker cores (master is separate)
  std::uint32_t buffering_depth = 2; ///< tasks buffered per Task Controller
                                     ///< (2 = the paper's double buffering)

  // --- Task Maestro storage (Table IV) --------------------------------------
  core::TaskPoolConfig task_pool{};        ///< 1K descriptors, 8 params
  core::DependenceTableConfig dep_table{}; ///< 4K entries, 8-id kick-off

  // --- Dependence-table banking ----------------------------------------------
  /// Number of independent Dependence Table banks: dep_table.capacity is
  /// split evenly across this many banks behind a home-region address
  /// partition (see src/bank/partition.hpp), and the bank arbiter times
  /// Check Deps and Handle Finished per bank. 1 is the paper's monolithic
  /// table; the nexus++ and classic-nexus engines always run one bank, the
  /// `nexus-banked` engine sweeps this.
  std::uint32_t banks = 1;
  /// Home-region size of the bank partition (power of two bytes).
  std::uint32_t bank_region_bytes = 256;

  // --- Clocks & access times -------------------------------------------------
  sim::Time nexus_cycle = sim::ns(2);      ///< Nexus++ at 500 MHz
  std::uint32_t onchip_access_cycles = 1;  ///< 2 ns per table access
  std::uint32_t block_overhead_cycles = 1; ///< per block activation
  std::uint32_t schedule_cycles = 2;       ///< Schedule block per task
  std::uint32_t td_send_cycles_per_word = 1;  ///< Send TDs -> TC transfer

  // --- Master core -----------------------------------------------------------
  sim::Time task_prep_time = sim::ns(30);
  bool enable_task_prep = true;  ///< §V disables it for the 221x experiment
  hw::BusConfig master_bus{};    ///< 8-byte words, 5-cycle handshake

  // --- Memory ----------------------------------------------------------------
  hw::MemoryConfig memory{};  ///< 32 banks x 128 B / 12 ns, port contention

  // --- FIFO list capacities (0 = auto-size) -----------------------------------
  std::uint32_t tds_buffer_capacity = 1024;  ///< the "TDs Sizes" bound
  std::uint32_t new_tasks_capacity = 0;      ///< auto: task-pool capacity
  std::uint32_t global_ready_capacity = 0;   ///< auto: task-pool capacity

  // --- Observability ----------------------------------------------------------
  /// Tracing knobs carried from EngineParams; the system only records when
  /// `timeline_recorder` is set. Purely observational — recording changes
  /// no simulated timing, so a traced run stays bit-identical to an
  /// untraced one in everything but its timeline.
  obs::TimelineOptions timeline{};
  /// Per-run recorder, owned by the caller (the engine adapter). Non-null
  /// only while a traced run is in flight.
  obs::TimelineRecorder* timeline_recorder = nullptr;

  void validate() const;

  /// Resolved capacity helpers.
  [[nodiscard]] std::uint32_t resolved_new_tasks_capacity() const noexcept {
    return new_tasks_capacity != 0 ? new_tasks_capacity : task_pool.capacity;
  }
  [[nodiscard]] std::uint32_t resolved_global_ready_capacity()
      const noexcept {
    return global_ready_capacity != 0 ? global_ready_capacity
                                      : task_pool.capacity;
  }

  /// The paper's Table IV defaults (identical to value-initialization; this
  /// spelling exists so call sites can say what they mean).
  [[nodiscard]] static NexusConfig paper_defaults() { return {}; }

  /// A "classic Nexus" baseline: 5-parameter descriptors, no dummy tasks,
  /// no dummy entries, no task buffering in the workers.
  [[nodiscard]] static NexusConfig classic_nexus();

  /// Renders the configuration as the paper's Table IV.
  [[nodiscard]] util::Table describe() const;
};

}  // namespace nexuspp::nexus
