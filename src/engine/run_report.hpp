#pragma once
// Unified result schema for every runtime model (Nexus++, classic Nexus,
// software StarSs RTS, and whatever comes next). Benchmarks, the sweep
// driver and tests all consume this one struct, so adding a backend never
// means new comparison glue: an Engine adapter fills a RunReport and the
// whole reporting path (tables, CSV, JSON, speedups) works unchanged.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hw/memory.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nexuspp::obs {
struct Timeline;
class MetricsRegistry;
}  // namespace nexuspp::obs

namespace nexuspp::engine {

/// Busy/stall accounting for one pipeline stage of a runtime model. Which
/// stages exist depends on the engine (the Task Maestro blocks for Nexus,
/// the single master thread for the software RTS); consumers iterate or
/// look a stage up by name.
struct StageStat {
  std::string name;
  sim::Time busy = 0;
  sim::Time stall = 0;

  [[nodiscard]] friend bool operator==(const StageStat&,
                                       const StageStat&) = default;
};

/// Recorded timeline riding along with a report when tracing was enabled.
/// Compares equal always, deliberately: the raw event stream is
/// observational metadata (wall timestamps, ring drops), not part of the
/// deterministic result contract that replay bit-identity asserts. The
/// derived obs_* scalars ARE plain fields and participate in equality.
struct TimelinePayload {
  std::shared_ptr<const obs::Timeline> data;

  [[nodiscard]] friend bool operator==(const TimelinePayload&,
                                       const TimelinePayload&) noexcept {
    return true;
  }
};

struct RunReport {
  // --- Identity -------------------------------------------------------------
  std::string engine;  ///< registry name of the engine that produced this

  // --- Outcome --------------------------------------------------------------
  sim::Time makespan = 0;
  std::uint64_t tasks_expected = 0;
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  bool deadlocked = false;
  /// Non-empty when deadlocked. exec-threads also fills it, without
  /// deadlocking, when the stream produced a different number of tasks
  /// than tasks_expected (its total_tasks()).
  std::string diagnosis;

  // --- Per-stage busy/stall breakdown --------------------------------------
  std::vector<StageStat> stages;

  // --- Workers --------------------------------------------------------------
  std::uint32_t num_workers = 0;
  sim::Time total_exec_time = 0;      ///< sum of task execution times
  double avg_core_utilization = 0.0;  ///< exec time / (makespan * workers)

  /// Per-task turnaround (submission to completion handling), nanoseconds.
  /// Carries mean/min/max and p50/p95/p99 percentiles.
  util::RunningStats turnaround_ns;

  // --- Memory ---------------------------------------------------------------
  hw::Memory::Stats mem_stats;

  // --- Structure extrema (zero where a model has no such structure) ---------
  std::size_t ready_queue_peak = 0;
  std::uint32_t tp_max_used = 0;
  std::uint64_t tp_dummy_slots = 0;
  /// Dependence Table live-entry highwater. At banks > 1 (nexus-banked)
  /// it is the hottest bank's highwater, not the whole table's.
  std::uint32_t dt_max_live = 0;
  std::uint32_t dt_longest_chain = 0;
  std::uint64_t dt_ko_dummies = 0;
  std::uint64_t sim_events = 0;

  // --- Dependency-resolution fidelity & cost --------------------------------
  /// Hazards the resolver recorded (per queued overlap in range mode, per
  /// queued address in base mode) — how base-address vs range matching
  /// compare in detected dependencies on the same workload.
  std::uint64_t raw_hazards = 0;
  std::uint64_t war_hazards = 0;
  std::uint64_t waw_hazards = 0;
  /// Dependence Table lookup census (hardware engines only): mean entries
  /// visited per lookup = dt_lookup_probes / dt_lookups.
  std::uint64_t dt_lookups = 0;
  std::uint64_t dt_lookup_probes = 0;

  // --- Real execution (exec-threads only; zeros/empty elsewhere) -------------
  /// Measured wall-clock throughput: completed tasks per second.
  double exec_tasks_per_sec = 0.0;
  /// Kernel body that ran the tasks ("spin" / "compute" / "memory" /
  /// "imbalance" / "dgemm"; empty for simulated engines) and the total
  /// calibrated work units executed (0 under spin — its model is time).
  std::string exec_kernel;
  std::uint64_t exec_kernel_work_units = 0;
  /// Per-worker busy/wall fraction. The CSV cell is the average (a single
  /// numeric column, so spreadsheets and the CI gate parse it); the JSON
  /// report additionally carries the per-worker values plus min/max.
  std::vector<double> exec_worker_utilization;

  // --- Observability (timeline-enabled runs only; zeros elsewhere) ----------
  /// Heaviest grant-chain kernel time and how many tasks sit on that chain
  /// (see obs/critical_path.hpp for the model).
  double obs_critical_path_ns = 0.0;
  std::uint64_t obs_critical_path_tasks = 0;
  double obs_slack_mean_ns = 0.0;
  double obs_slack_max_ns = 0.0;
  /// Fraction of recorded busy time spent in dependence resolution
  /// (submit + stall + release spans) rather than running kernels.
  double obs_resolution_overhead_frac = 0.0;
  std::uint64_t obs_timeline_events = 0;
  std::uint64_t obs_timeline_dropped = 0;
  TimelinePayload timeline;

  // --- METG (set only by SweepDriver::run_metg; 0 = not measured) ------------
  /// Minimum effective task granularity: the smallest per-task duration at
  /// which this engine still sustained the efficiency floor on the swept
  /// workload (task-bench's headline metric). Stamped onto the crossing
  /// row of a METG ladder; plain runs leave it 0. Never feeds speedup
  /// math — speedup_vs() compares makespans only.
  double metg_ns = 0.0;

  // --- Dependence-table banking (nexus-banked only; banks == 0 elsewhere) ---
  std::uint32_t banks = 0;
  /// Cycles table operations spent queued behind a busy bank (the arbiter's
  /// conflict stall total).
  sim::Time bank_conflict_wait = 0;
  /// Max/mean per-bank busy time (1.0 = perfectly balanced; 0 = no ops).
  double bank_busy_imbalance = 0.0;
  /// Max/mean per-bank live-entry highwater.
  double bank_occupancy_imbalance = 0.0;
  /// The hottest bank's live-entry highwater.
  std::uint32_t bank_peak_live = 0;
  /// Per-bank live highwaters (rendered as a ';'-packed CSV cell so the
  /// flat schema stays fixed across bank counts).
  std::vector<std::uint32_t> per_bank_max_live;

  [[nodiscard]] std::uint64_t total_hazards() const noexcept {
    return raw_hazards + war_hazards + waw_hazards;
  }
  [[nodiscard]] double dt_avg_lookup_probes() const noexcept {
    return dt_lookups == 0 ? 0.0
                           : static_cast<double>(dt_lookup_probes) /
                                 static_cast<double>(dt_lookups);
  }

  /// Busy/stall for stage `name`; nullptr when the engine has no such stage.
  [[nodiscard]] const StageStat* stage(std::string_view name) const noexcept;

  /// Total stall time across all stages.
  [[nodiscard]] sim::Time total_stall() const noexcept;

  /// Wall-clock speedup of this run relative to a baseline's makespan.
  [[nodiscard]] double speedup_vs(const RunReport& baseline) const noexcept {
    if (makespan <= 0) return 0.0;
    return static_cast<double>(baseline.makespan) /
           static_cast<double>(makespan);
  }

  /// Mean of exec_worker_utilization (0 when empty) — the CSV cell value.
  [[nodiscard]] double exec_worker_utilization_avg() const noexcept;

  /// Registers this report's telemetry — stage busy/stall, hazard counts,
  /// sync/lock stats, bank usage, turnaround distribution, obs_* summary —
  /// into a unified metrics registry under stable dotted names.
  void register_metrics(obs::MetricsRegistry& registry) const;

  /// Human-readable summary table.
  [[nodiscard]] util::Table to_table(const std::string& title) const;

  /// Flat serialization: a fixed column set shared by CSV and JSON so
  /// sweep output from any mix of engines lines up row by row.
  [[nodiscard]] static std::vector<std::string> csv_header();
  [[nodiscard]] std::vector<std::string> csv_row() const;

  /// Field-for-field equality. Every field of a simulation's RunReport is
  /// deterministic in (engine, config, record stream), so this is the
  /// bit-identity check the trace capture/replay pipeline is tested
  /// against: replaying a captured trace must reproduce the report of the
  /// run it was captured from, exactly.
  [[nodiscard]] friend bool operator==(const RunReport&,
                                       const RunReport&) = default;
};

}  // namespace nexuspp::engine
