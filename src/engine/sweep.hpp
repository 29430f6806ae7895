#pragma once
// Multi-threaded design-space sweep driver.
//
// A SweepSpec is a declarative description of a measurement campaign:
// named workloads (stream factories), plus points = engine name x workload
// name x EngineParams, optionally grouped into speedup series with a
// designated baseline. The SweepDriver expands nothing lazily and hides
// nothing: every point becomes exactly one single-threaded simulation, and
// because points are independent the driver runs them concurrently on a
// std::thread pool.
//
// Results come back in spec order (fully deterministic regardless of
// thread interleaving) with speedup-vs-baseline columns computed per
// series, and can be emitted as an aligned table, sorted CSV, or JSON.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "engine/run_report.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"

namespace nexuspp::engine {

/// Builds a fresh stream per run. Must be safe to invoke concurrently from
/// several sweep threads (all shipped factories are: they copy a config or
/// share an immutable trace vector).
using StreamFactory = std::function<std::unique_ptr<trace::TaskStream>()>;

struct WorkloadSpec {
  std::string name;
  StreamFactory factory;
};

/// One point of the design space.
struct PointSpec {
  std::string engine;    ///< EngineRegistry name
  std::string workload;  ///< SweepSpec workload name
  EngineParams params;
  std::string series;    ///< speedup group; empty = "<engine>/<workload>"
  bool baseline = false; ///< reference run of its series
  std::string label;     ///< display label; empty = params.label()

  [[nodiscard]] std::string resolved_series() const {
    return series.empty() ? engine + "/" + workload : series;
  }
  [[nodiscard]] std::string resolved_label() const {
    return label.empty() ? params.label() : label;
  }
};

class SweepSpec {
 public:
  /// Registers a named workload. Returns *this for chaining.
  SweepSpec& workload(std::string name, StreamFactory factory);

  /// Registers a workload backed by a trace file (.nxt/.nxb, any format
  /// version): the file is loaded once, here, and every run shares the
  /// immutable record vector — sweeps replay the captured stream instead
  /// of a generator spec. Throws trace::TraceIoError on unreadable files.
  SweepSpec& workload_from_trace(std::string name, const std::string& path);

  /// Adds one explicit point.
  SweepSpec& point(PointSpec p);

  /// Cross-product helper: every engine x every registered-here workload
  /// name x every params entry. Within each (engine, workload) pair the
  /// first params entry is marked as the series baseline.
  SweepSpec& grid(const std::vector<std::string>& engines,
                  const std::vector<std::string>& workload_names,
                  const std::vector<EngineParams>& params);

  [[nodiscard]] const std::vector<WorkloadSpec>& workloads() const noexcept {
    return workloads_;
  }
  [[nodiscard]] const std::vector<PointSpec>& points() const noexcept {
    return points_;
  }

  /// Factory for `workload`; throws std::out_of_range if unknown.
  [[nodiscard]] const StreamFactory& factory_for(
      const std::string& workload) const;

 private:
  std::vector<WorkloadSpec> workloads_;
  std::vector<PointSpec> points_;
};

struct SweepResult {
  PointSpec spec;
  RunReport report;
  double speedup = 0.0;       ///< vs series baseline; 0 when undefined
  double wall_seconds = 0.0;  ///< host time spent simulating this point
  /// Non-empty when running this point threw (an infrastructure failure —
  /// bad spec, allocation, I/O), as opposed to a *diagnosed deadlock*,
  /// which a report carries in `report.deadlocked`/`report.diagnosis`.
  /// Surfaces in the CSV/JSON `error` column; never sets `deadlocked`.
  std::string error;

  [[nodiscard]] bool failed() const noexcept {
    return report.deadlocked || !error.empty();
  }
};

struct SweepOptions {
  /// Worker threads. 0 = auto: max(4, std::thread::hardware_concurrency()).
  unsigned threads = 0;
};

struct MetgSpec;
struct MetgResult;

class SweepDriver {
 public:
  explicit SweepDriver(const EngineRegistry& registry =
                           EngineRegistry::builtins(),
                       SweepOptions options = {});

  /// Runs every point of `spec`; returns results in spec order. A point
  /// whose simulation throws carries the exception text in
  /// `SweepResult::error` (its report stays default — exceptions are
  /// infrastructure failures, not deadlock diagnoses) — one broken
  /// configuration never aborts a grid.
  [[nodiscard]] std::vector<SweepResult> run(const SweepSpec& spec);

  /// Runs one METG ladder (see MetgSpec below): descend the granularity
  /// axis from start_task_ns, halving per rung, until efficiency falls
  /// below task-bench's 50 % floor (or the ladder/min is exhausted).
  /// Rungs run sequentially — each one's efficiency decides whether to
  /// descend.
  [[nodiscard]] MetgResult run_metg(const MetgSpec& spec);

  /// Telemetry of the last run().
  [[nodiscard]] double last_wall_seconds() const noexcept {
    return last_wall_seconds_;
  }
  [[nodiscard]] unsigned last_threads_used() const noexcept {
    return last_threads_used_;
  }

  // --- Emission ---------------------------------------------------------------

  /// Extra per-result column for to_table().
  struct Column {
    std::string header;
    std::function<std::string(const SweepResult&)> cell;
  };

  /// Standard results table: series, label, engine, makespan, speedup,
  /// utilization, status — plus any caller-provided columns. (The
  /// workload is part of the default series name; pass an extra column
  /// when a custom-series table needs it spelled out.)
  [[nodiscard]] static util::Table to_table(
      const std::string& title, const std::vector<SweepResult>& results,
      const std::vector<Column>& extra = {});

  /// CSV rows sorted by (series, spec order): point identity + speedup +
  /// the full unified RunReport column set.
  static void write_csv(const std::vector<SweepResult>& results,
                        std::ostream& os);

  /// The CSV's rows as a JSON array of to_json() objects, in CSV order.
  static void write_json(const std::vector<SweepResult>& results,
                         std::ostream& os);

  /// One result as a JSON object: the point columns, then the report's
  /// (RunReport::write_json_members: typed by the schema, null where a
  /// column does not apply, plus the values the CSV flattens).
  [[nodiscard]] static std::string to_json(const SweepResult& result);

  /// Writes the Chrome-trace timeline of every result that recorded one
  /// (EngineParams::timeline.enabled) to `path`. A single timeline lands at
  /// `path` exactly; with several, each point i writes `stem.p<i>.ext`. The
  /// point's to_json() object rides along under the "report" key. Returns
  /// the paths written, in results order; throws std::runtime_error
  /// naming the first path it could not write.
  static std::vector<std::string> export_timelines(
      const std::vector<SweepResult>& results, const std::string& path);

 private:
  const EngineRegistry* registry_;
  SweepOptions options_;
  double last_wall_seconds_ = 0.0;
  unsigned last_threads_used_ = 0;
};

// --- METG (minimum effective task granularity) --------------------------------
//
// task-bench's headline metric: shrink the per-task duration until the
// system can no longer keep efficiency above a floor (canonically 50%);
// the smallest still-efficient granularity is the METG. Engines with
// cheap dependence resolution sustain tiny tasks (low METG); heavyweight
// ones need coarse tasks to amortize their overhead (high METG).

/// One granularity sample of a METG ladder.
struct MetgSample {
  std::uint64_t task_ns = 0;  ///< requested per-task duration
  double efficiency = 0.0;    ///< total_exec / (makespan * workers)
};

/// Efficiency of one run: useful kernel time over the machine time the
/// run occupied — total_exec / (makespan * workers). Works identically
/// for simulated makespans and the real executor's wall clock.
[[nodiscard]] double run_efficiency(const RunReport& report) noexcept;

/// The 50%-crossing computation, as a pure function so tests can pin it
/// on synthetic curves. Samples are sorted by descending task_ns
/// (duplicates collapse to the first occurrence); the METG is the
/// granularity at which the efficiency curve crosses `efficiency_floor`,
/// log-interpolated between the last sample at/above the floor and the
/// first below it (exactly the boundary sample's task_ns when it sits on
/// the floor). Returns 0 when the curve never reaches the floor (no
/// granularity is effective), and the smallest sampled task_ns when it
/// never drops below (the ladder did not descend far enough).
[[nodiscard]] double metg_from_samples(std::vector<MetgSample> samples,
                                       double efficiency_floor = 0.5);

/// One engine x workload METG measurement campaign.
struct MetgSpec {
  std::string engine;    ///< EngineRegistry name
  std::string workload;  ///< display name for reports/CSV
  /// Builds the workload at a given per-task granularity (the ladder axis).
  std::function<StreamFactory(std::uint64_t task_ns)> workload_at;
  EngineParams params;
  std::uint64_t start_task_ns = 262'144;  ///< ladder top (halves each rung)
  std::uint64_t min_task_ns = 64;         ///< ladder floor (inclusive)
  std::string series;  ///< speedup/CSV series; empty = engine/workload
};

struct MetgResult {
  /// The efficiency curve, in ladder order (descending task_ns).
  std::vector<MetgSample> samples;
  /// metg_from_samples over `samples` (0 when never effective).
  double metg_ns = 0.0;
  /// One SweepResult per rung, labeled "task_ns=<g>"; the crossing rung
  /// (last at/above the floor) carries metg_ns in its RunReport, so the
  /// standard CSV/JSON emission reports METG first-class.
  std::vector<SweepResult> runs;
  /// Non-empty when a rung failed (deadlock or exception); the ladder
  /// stops there and metg_ns reflects only the rungs that ran.
  std::string error;
};

/// Convenience: run `spec` on the built-in registry with default options.
[[nodiscard]] std::vector<SweepResult> run_sweep(const SweepSpec& spec,
                                                 SweepOptions options = {});

}  // namespace nexuspp::engine
