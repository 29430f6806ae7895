#pragma once
// Shared pieces of the repository benchmark: command-line options, the
// outcome record every workload fills, the in-memory span log of the
// traced run, and the statistics helpers the self-test pins down.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/sweep.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool inject_failure = false;  ///< self-test hook: break one check on purpose
  std::string spans_out;        ///< traced run: file the span log goes to
};

/// One reported figure: the median of `samples` measurements.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one workload invocation measured and checked.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< reps: timed calls plus validation runs
  std::uint64_t failed = 0;     ///< reps that failed any check
  std::vector<std::string> failures;  ///< first few check messages
  double steal_frac = 0.0;      ///< vCPU steal share over the measured reps

  /// Adds the median of `values` (nothing when empty).
  void add(const std::string& name, const std::vector<double>& values,
           const std::string& unit);
  void add_value(const std::string& name, double value,
                 const std::string& unit, std::size_t samples);
  /// Counts one rep; a non-empty `problem` marks it failed.
  void rep(const std::string& problem);
};

// --- Statistics ---------------------------------------------------------------

/// Median (mean of the two middle values for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Efficiency samples of one granularity rung across reps.
struct Rung {
  std::uint64_t task_ns = 0;
  std::vector<double> efficiency;
};

/// METG efficiency floor (task-bench's 50 %).
inline constexpr double kMetgFloor = 0.5;

/// Per-rung median efficiency, in rung order.
[[nodiscard]] std::vector<nexuspp::engine::MetgSample> rung_medians(
    const std::vector<Rung>& rungs);

/// METG in ns from the per-rung medians (engine::metg_from_samples).
[[nodiscard]] double metg_ns(const std::vector<Rung>& rungs);

// --- Span log -----------------------------------------------------------------

/// In-memory spans of the traced run. A span covers one call (or, for
/// per-task calls, an aggregate of `calls` calls whose summed time is
/// `busy_ns`); `parent` links it to the span it ran under and `rep` names
/// the rep it belongs to. Nothing is written until the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ns = 0.0;
    double end_ns = 0.0;
    int parent = -1;
    std::uint64_t rep = 0;
    std::uint64_t calls = 1;
    double busy_ns = 0.0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; closed by the Scope.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::uint64_t rep);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  /// Records an aggregate child of the innermost open span: `calls` calls
  /// between `start_ns` and `end_ns` (log clock) that took `busy_ns`.
  void add_calls(std::string name, std::uint64_t rep, std::uint64_t calls,
                 double start_ns, double end_ns, double busy_ns);

  /// Log-clock timestamp (ns since the log was created).
  [[nodiscard]] double now_ns() const { return ns_since(origin_); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// A span's duration minus the busy time of its direct children.
  [[nodiscard]] double self_ns(std::size_t index) const;

  /// Writes every span as one JSON document; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Host ---------------------------------------------------------------------

/// Aggregate CPU time from /proc/stat, in clock ticks (zeros when unreadable).
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] CpuTimes read_cpu_times();
/// Share of all CPU time between two readings that the hypervisor stole.
[[nodiscard]] double steal_share(const CpuTimes& from, const CpuTimes& to);

// --- Workloads ----------------------------------------------------------------

/// Input fingerprint (FNV-1a over everything the workload generates from
/// its seed); the self-test compares it across seeds.
[[nodiscard]] std::uint64_t input_digest(const std::string& workload,
                                         std::uint64_t seed);

[[nodiscard]] Outcome run_fine_stream(const Options& opt, SpanLog& log);
[[nodiscard]] Outcome run_pattern_metg(const Options& opt, SpanLog& log);
[[nodiscard]] Outcome run_runtime_api(const Options& opt, SpanLog& log);

/// Names of the workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

// --- Per-layer replays and timeline aggregation (replay.cpp) ------------------

/// Per-task cost of replaying `tasks` on one thread in FIFO ready order.
struct ReplayCost {
  double submit_ns_per_task = 0.0;
  double finish_ns_per_task = 0.0;
  double probes_per_lookup = 0.0;  ///< core replay only
  std::string problem;             ///< non-empty when the replay failed
};

/// Through one core::TaskPool + DependenceTable + Resolver.
[[nodiscard]] ReplayCost replay_core(
    const std::vector<nexuspp::trace::TaskRecord>& tasks, SpanLog& log,
    std::uint64_t rep);

/// Through one exec::ShardedResolver with `shards` shards.
[[nodiscard]] ReplayCost replay_sharded(
    const std::vector<nexuspp::trace::TaskRecord>& tasks,
    std::uint32_t shards, SpanLog& log, std::uint64_t rep);

/// Per-rep figures derived from an exec-threads timeline.
struct TimelineFigures {
  /// Span kind name (obs::to_string) -> {summed ns, count}.
  std::map<std::string, std::pair<double, double>> spans;
  std::vector<double> ready_to_run_ns;  ///< one per task with both events
  std::uint64_t dropped = 0;
};
[[nodiscard]] TimelineFigures timeline_figures(
    const nexuspp::engine::RunReport& report);

}  // namespace perfbench
