#pragma once
// Result of one Nexus++ system simulation: makespan, completion status,
// per-block utilization, table statistics and the Dependence Table's bank
// telemetry. Everything a benchmark needs to compute speedups and
// everything a test needs to assert on behaviour. engine::RunReport is
// the summary table and the CSV/JSON schema built from it.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "hw/bus.hpp"
#include "hw/memory.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace nexuspp::nexus {

struct SystemReport {
  // --- Outcome ---------------------------------------------------------------
  sim::Time makespan = 0;
  std::uint64_t tasks_expected = 0;
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  bool deadlocked = false;
  std::string diagnosis;  ///< non-empty when deadlocked

  // --- Master core -------------------------------------------------------------
  sim::Time master_active = 0;  ///< prep + bus time
  sim::Time master_stall = 0;   ///< blocked on a full TDs buffer

  // --- Task Maestro block busy times --------------------------------------------
  sim::Time write_tp_busy = 0;
  sim::Time write_tp_stall = 0;  ///< waiting for Task Pool space
  sim::Time check_deps_busy = 0;
  sim::Time check_deps_stall = 0;  ///< waiting for Dependence Table space
  sim::Time schedule_busy = 0;
  sim::Time send_tds_busy = 0;
  sim::Time handle_finished_busy = 0;

  // --- Workers -------------------------------------------------------------------
  sim::Time total_exec_time = 0;  ///< sum of task execution times
  double avg_core_utilization = 0.0;
  /// Per-task turnaround (submission at the master to completion at the
  /// Handle Finished block), in nanoseconds.
  util::RunningStats turnaround_ns;
  std::size_t ready_queue_peak = 0;  ///< Global Ready list max occupancy

  // --- Structure snapshots ----------------------------------------------------
  core::TaskPool::Stats tp_stats;
  core::DependenceTable::Stats dt_stats;
  core::Resolver::Stats resolver_stats;
  hw::Memory::Stats mem_stats;
  hw::Bus::Stats bus_stats;
  std::uint64_t sim_events = 0;

  // --- Dependence-table banks (bank::BankUsage, bank::BankedTable) --------
  std::uint32_t banks = 1;
  sim::Time bank_conflict_wait = 0;  ///< total wait behind busy banks
  double bank_busy_imbalance = 0.0;  ///< max/mean per-bank busy time
  std::vector<sim::Time> per_bank_busy;
  std::vector<sim::Time> per_bank_conflict;
  std::vector<std::uint64_t> per_bank_ops;
  std::uint32_t bank_peak_live = 0;       ///< hottest bank's live highwater
  double bank_occupancy_imbalance = 0.0;  ///< max/mean live highwater
  std::vector<std::uint32_t> per_bank_max_live;

  /// Wall-clock speedup of this run relative to a baseline makespan.
  [[nodiscard]] double speedup_vs(const SystemReport& single_core) const {
    if (makespan <= 0) return 0.0;
    return static_cast<double>(single_core.makespan) /
           static_cast<double>(makespan);
  }
};

}  // namespace nexuspp::nexus
