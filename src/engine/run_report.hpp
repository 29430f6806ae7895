#pragma once
// The one result type of every runtime model: Nexus++ and classic Nexus
// (nexus::NexusSystem), the software StarSs RTS (rts::run_software_rts)
// and the real executor (exec::ThreadedExecutor) each fill a RunReport
// where they measure its values; the Engine adapters add only the engine
// name and a recorded timeline, and clear the bank cells of the unbanked
// Nexus engines. Benchmarks, the sweep driver and tests all consume this
// one struct, so adding a backend never means new comparison glue, and a
// new measured value is one field plus one column.
//
// The schema is declared once, as the column table in run_report.cpp: each
// column has a name, a unit, a group that says when it applies, a one-line
// meaning and an accessor. The CSV, the JSON object, the summary table and
// the report a Chrome trace embeds all render that table, so adding a
// column is one entry. A column whose group the report does not cover
// (see RunReport::Measure) renders empty in CSV, null in JSON and not at
// all in the table: "not measured" never reads as a measured zero.
//
// This header includes only util/, sim/, hw/ and core/, so the models
// below the engine layer can fill the struct without depending on the
// engines.

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "hw/memory.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nexuspp::obs {
struct Timeline;
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
  /// What the producing model measures, as bits it OR-s into `measures`.
  /// A column of a group the model does not measure renders empty, not as
  /// a zero nobody measured.
  enum Measure : std::uint8_t {
    kMemory = 1U << 0,     ///< modelled memory traffic (mem_* columns)
    kTables = 1U << 1,     ///< Task Pool, Dependence Table, ready queue
    kSimEvents = 1U << 2,  ///< a discrete-event simulator (sim_events)
    kWallClock = 1U << 3,  ///< real threads on the host clock (exec_*)
  };

  std::string engine;
  std::uint8_t measures = 0;  ///< Measure bits

  sim::Time makespan = 0;
  std::uint64_t tasks_expected = 0;  ///< the stream's total_tasks()
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  bool deadlocked = false;
  /// Why the run failed when deadlocked; otherwise empty, unless
  /// exec-threads' stream produced a different number of tasks than
  /// tasks_expected (it runs them all and names both counts).
  std::string diagnosis;

  /// Per-stage busy/stall breakdown.
  std::vector<StageStat> stages;

  std::uint32_t num_workers = 0;
  sim::Time total_exec_time = 0;
  double avg_core_utilization = 0.0;
  util::RunningStats turnaround_ns;

  hw::Memory::Stats mem_stats;

  std::size_t ready_queue_peak = 0;
  std::uint32_t tp_max_used = 0;
  std::uint64_t tp_dummy_slots = 0;
  std::uint32_t dt_max_live = 0;
  std::uint32_t dt_longest_chain = 0;
  std::uint64_t dt_ko_dummies = 0;
  std::uint64_t sim_events = 0;

  /// Hazards the resolver recorded (per queued overlap in range mode, per
  /// queued address in base mode), so base-address and range matching
  /// compare in detected dependencies on the same workload.
  std::uint64_t raw_hazards = 0;
  std::uint64_t war_hazards = 0;
  std::uint64_t waw_hazards = 0;
  /// Dependence Table lookup census: dt_avg_lookup_probes() is their ratio.
  std::uint64_t dt_lookups = 0;
  std::uint64_t dt_lookup_probes = 0;

  double exec_tasks_per_sec = 0.0;
  std::string exec_kernel;
  std::uint64_t exec_kernel_work_units = 0;
  /// Per-worker busy/wall fraction. The CSV cell is the average; the JSON
  /// object also carries the per-worker values and their min and max.
  std::vector<double> exec_worker_utilization;

  /// Critical-path analysis of the recorded timeline (see
  /// obs/critical_path.hpp); the obs_* columns apply only when `timeline`
  /// holds one.
  double obs_critical_path_ns = 0.0;
  std::uint64_t obs_critical_path_tasks = 0;
  double obs_slack_mean_ns = 0.0;
  double obs_slack_max_ns = 0.0;
  double obs_resolution_overhead_frac = 0.0;
  std::uint64_t obs_timeline_events = 0;
  std::uint64_t obs_timeline_dropped = 0;
  TimelinePayload timeline;

  /// Set only by SweepDriver::run_metg, on a ladder's crossing rung; 0
  /// means not measured. Never feeds speedup_vs(), which compares
  /// makespans only.
  double metg_ns = 0.0;

  /// Dependence Table banking (nexus-banked only; 0 elsewhere, and then
  /// no bank column applies).
  std::uint32_t banks = 0;
  sim::Time bank_conflict_wait = 0;
  double bank_busy_imbalance = 0.0;
  double bank_occupancy_imbalance = 0.0;
  std::uint32_t bank_peak_live = 0;
  std::vector<std::uint32_t> per_bank_max_live;

  [[nodiscard]] std::uint64_t total_hazards() const noexcept {
    return raw_hazards + war_hazards + waw_hazards;
  }
  [[nodiscard]] double dt_avg_lookup_probes() const noexcept {
    return dt_lookups == 0 ? 0.0
                           : static_cast<double>(dt_lookup_probes) /
                                 static_cast<double>(dt_lookups);
  }

  /// Fills the Task Pool, Dependence Table and hazard cells from the
  /// statistics of the tables and the resolver the model ran.
  void set_table_stats(const core::TaskPool::Stats& tp,
                       const core::DependenceTable::Stats& dt,
                       const core::Resolver::Stats& hazards) noexcept;

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

  /// Summary table: one row per column that applies (name, value, unit,
  /// meaning), then each stage's busy/stall share of the makespan.
  [[nodiscard]] util::Table to_table(const std::string& title) const;

  /// The column names, in order. Every engine's rows share them, so sweep
  /// output from any mix of engines lines up row by row.
  [[nodiscard]] static std::vector<std::string> csv_header();
  /// One cell per column; empty where the column does not apply.
  [[nodiscard]] std::vector<std::string> csv_row() const;

  /// Writes the report's JSON object members, without the braces: every
  /// column (numbers bare, text quoted, null where it does not apply), then
  /// the structured values the CSV flattens: the per-worker utilization
  /// with its min and max, and each stage's busy and stall time.
  void write_json_members(std::ostream& os) const;

  /// Field-for-field equality. Every field of a simulation's RunReport is
  /// deterministic in (engine, config, record stream), so this is the
  /// bit-identity check the trace capture/replay pipeline is tested
  /// against: replaying a captured trace must reproduce the report of the
  /// run it was captured from, exactly.
  [[nodiscard]] friend bool operator==(const RunReport&,
                                       const RunReport&) = default;
};

}  // namespace nexuspp::engine
