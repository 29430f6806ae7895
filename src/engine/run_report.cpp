#include "engine/run_report.hpp"

#include <algorithm>
#include <ostream>

#include "obs/trace_export.hpp"

namespace nexuspp::engine {

namespace {

/// When a column applies: a RunReport::Measure bit (bits 0-3), or one of
/// these, which follow from the report's own values (applicable_groups).
enum Group : std::uint16_t {
  kAlways = 1U << 4,
  kWholeTable = 1U << 5,  ///< tables measured, and not split over banks
  kBanked = 1U << 6,
  kTraced = 1U << 7,
  kMetgStamped = 1U << 8,
};

std::uint16_t applicable_groups(const RunReport& r) {
  auto groups = static_cast<std::uint16_t>(kAlways | r.measures);
  if ((r.measures & RunReport::kTables) != 0 && r.banks <= 1) {
    groups |= kWholeTable;
  }
  if (r.banks > 0) groups |= kBanked;
  if (r.timeline.data != nullptr) groups |= kTraced;
  if (r.metg_ns > 0.0) groups |= kMetgStamped;
  return groups;
}

std::string real(double v) { return util::fmt_f(v, 3); }
std::string ns(sim::Time t) { return real(sim::to_ns(t)); }
std::string frac(double v) { return util::fmt_f(v, 4); }

constexpr std::string_view kText = "text";  ///< the unit of a text column

struct Column {
  std::string_view name;
  std::string_view unit;  ///< kText: quoted in JSON; else a bare number
  std::uint16_t group;    ///< Group or RunReport::Measure bit
  std::string_view meaning;
  std::string (*cell)(const RunReport&);
};

using R = RunReport;

// The schema. Append a column here and every rendering carries it.
const Column kColumns[] = {
    {"engine", kText, kAlways, "registry name of the engine that ran",
     [](const R& r) { return r.engine; }},
    {"workers", "cores", kAlways,
     "worker cores; exec-threads: threads that run tasks (threads + 1 at "
     "threads >= 2: the master runs tasks too)",
     [](const R& r) { return std::to_string(r.num_workers); }},
    {"makespan_ns", "ns", kAlways,
     "first submission to last completion (exec-threads: wall clock)",
     [](const R& r) { return ns(r.makespan); }},
    {"tasks_expected", "tasks", kAlways, "tasks the stream announced",
     [](const R& r) { return std::to_string(r.tasks_expected); }},
    {"tasks_completed", "tasks", kAlways, "tasks that finished",
     [](const R& r) { return std::to_string(r.tasks_completed); }},
    {"deadlocked", "0/1", kAlways, "1 when the run could not finish",
     [](const R& r) { return std::string(r.deadlocked ? "1" : "0"); }},
    {"avg_core_utilization", "frac", kAlways,
     "total_exec_ns / (makespan_ns x workers)",
     [](const R& r) { return frac(r.avg_core_utilization); }},
    {"total_exec_ns", "ns", kAlways, "task execution time, summed",
     [](const R& r) { return ns(r.total_exec_time); }},
    {"total_stall_ns", "ns", kAlways, "stall time, summed over the stages",
     [](const R& r) { return ns(r.total_stall()); }},
    {"turnaround_mean_ns", "ns", kAlways,
     "per-task submission to completion handling, mean",
     [](const R& r) { return real(r.turnaround_ns.mean()); }},
    {"turnaround_p50_ns", "ns", kAlways, "turnaround, median",
     [](const R& r) { return real(r.turnaround_ns.p50()); }},
    {"turnaround_p95_ns", "ns", kAlways, "turnaround, 95th percentile",
     [](const R& r) { return real(r.turnaround_ns.p95()); }},
    {"turnaround_p99_ns", "ns", kAlways, "turnaround, 99th percentile",
     [](const R& r) { return real(r.turnaround_ns.p99()); }},
    {"mem_transfers", "transfers", R::kMemory,
     "modelled memory transfers of task inputs and outputs",
     [](const R& r) { return std::to_string(r.mem_stats.transfers); }},
    {"mem_contention_wait_ns", "ns", R::kMemory,
     "time transfers waited for a busy memory port or bank",
     [](const R& r) { return ns(r.mem_stats.contention_wait); }},
    {"ready_queue_peak", "tasks", R::kTables, "ready queue highwater",
     [](const R& r) { return std::to_string(r.ready_queue_peak); }},
    {"tp_max_used", "slots", R::kTables, "Task Pool highwater",
     [](const R& r) { return std::to_string(r.tp_max_used); }},
    {"dt_max_live", "entries", kWholeTable,
     "Dependence Table live-entry highwater (banked: see bank_*)",
     [](const R& r) { return std::to_string(r.dt_max_live); }},
    {"dt_longest_chain", "entries", R::kTables,
     "longest Dependence Table hash chain",
     [](const R& r) { return std::to_string(r.dt_longest_chain); }},
    {"dt_ko_dummies", "entries", R::kTables,
     "dummy entries allocated for full kick-off lists",
     [](const R& r) { return std::to_string(r.dt_ko_dummies); }},
    {"raw_hazards", "count", kAlways, "read-after-write hazards recorded",
     [](const R& r) { return std::to_string(r.raw_hazards); }},
    {"war_hazards", "count", kAlways, "write-after-read hazards recorded",
     [](const R& r) { return std::to_string(r.war_hazards); }},
    {"waw_hazards", "count", kAlways, "write-after-write hazards recorded",
     [](const R& r) { return std::to_string(r.waw_hazards); }},
    {"dt_avg_lookup_probes", "entries", R::kTables,
     "Dependence Table entries visited per lookup, mean",
     [](const R& r) { return real(r.dt_avg_lookup_probes()); }},
    {"sim_events", "events", R::kSimEvents, "simulator events executed",
     [](const R& r) { return std::to_string(r.sim_events); }},
    {"banks", "banks", kBanked, "Dependence Table banks",
     [](const R& r) { return std::to_string(r.banks); }},
    {"bank_conflict_ns", "ns", kBanked,
     "time table operations queued behind a busy bank",
     [](const R& r) { return ns(r.bank_conflict_wait); }},
    {"bank_busy_imbalance", "max/mean", kBanked,
     "per-bank busy time, max over mean (1 = balanced)",
     [](const R& r) { return real(r.bank_busy_imbalance); }},
    {"bank_occupancy_imbalance", "max/mean", kBanked,
     "per-bank live-entry highwater, max over mean",
     [](const R& r) { return real(r.bank_occupancy_imbalance); }},
    {"bank_peak_live", "entries", kBanked,
     "the hottest bank's live-entry highwater",
     [](const R& r) { return std::to_string(r.bank_peak_live); }},
    {"bank_max_live_per_bank", kText, kBanked,
     "each bank's live-entry highwater, ';'-separated",
     [](const R& r) {
       std::string packed;
       for (const auto live : r.per_bank_max_live) {
         if (!packed.empty()) packed += ';';
         packed += std::to_string(live);
       }
       return packed;
     }},
    {"exec_tasks_per_sec", "1/s", R::kWallClock,
     "completed tasks per wall-clock second",
     [](const R& r) { return real(r.exec_tasks_per_sec); }},
    {"exec_kernel", kText, R::kWallClock, "kernel body that ran the tasks",
     [](const R& r) { return r.exec_kernel; }},
    {"exec_kernel_work_units", "units", R::kWallClock,
     "calibrated kernel work executed (0 under spin)",
     [](const R& r) { return std::to_string(r.exec_kernel_work_units); }},
    {"exec_worker_utilization", "frac", R::kWallClock,
     "kernel time over wall time, mean over workers",
     [](const R& r) { return frac(r.exec_worker_utilization_avg()); }},
    {"obs_critical_path_ns", "ns", kTraced,
     "kernel time on the heaviest grant chain",
     [](const R& r) { return real(r.obs_critical_path_ns); }},
    {"obs_critical_path_tasks", "tasks", kTraced, "tasks on that chain",
     [](const R& r) { return std::to_string(r.obs_critical_path_tasks); }},
    {"obs_slack_mean_ns", "ns", kTraced, "per-task slack, mean",
     [](const R& r) { return real(r.obs_slack_mean_ns); }},
    {"obs_slack_max_ns", "ns", kTraced, "per-task slack, max",
     [](const R& r) { return real(r.obs_slack_max_ns); }},
    {"obs_resolution_overhead_frac", "frac", kTraced,
     "share of recorded busy time spent resolving dependences",
     [](const R& r) { return frac(r.obs_resolution_overhead_frac); }},
    {"obs_timeline_events", "events", kTraced, "timeline events recorded",
     [](const R& r) { return std::to_string(r.obs_timeline_events); }},
    {"obs_timeline_dropped", "events", kTraced,
     "timeline events dropped by full rings",
     [](const R& r) { return std::to_string(r.obs_timeline_dropped); }},
    {"metg_ns", "ns", kMetgStamped,
     "minimum effective task granularity at 50% efficiency",
     [](const R& r) { return real(r.metg_ns); }},
    {"diagnosis", kText, kAlways,
     "why the run stopped or miscounted its tasks; empty if neither",
     [](const R& r) { return r.diagnosis; }},
};

}  // namespace

void RunReport::set_table_stats(const core::TaskPool::Stats& tp,
                                const core::DependenceTable::Stats& dt,
                                const core::Resolver::Stats& hazards) noexcept {
  tp_max_used = tp.max_used_slots;
  tp_dummy_slots = tp.dummy_slots_allocated;
  dt_max_live = dt.max_live_slots;
  dt_longest_chain = dt.longest_hash_chain;
  dt_ko_dummies = dt.ko_dummy_allocations;
  dt_lookups = dt.lookups;
  dt_lookup_probes = dt.lookup_probes;
  raw_hazards = hazards.raw_hazards;
  war_hazards = hazards.war_hazards;
  waw_hazards = hazards.waw_hazards;
}

const StageStat* RunReport::stage(std::string_view name) const noexcept {
  for (const auto& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

sim::Time RunReport::total_stall() const noexcept {
  sim::Time total = 0;
  for (const auto& s : stages) total += s.stall;
  return total;
}

double RunReport::exec_worker_utilization_avg() const noexcept {
  if (exec_worker_utilization.empty()) return 0.0;
  double sum = 0.0;
  for (const double u : exec_worker_utilization) sum += u;
  return sum / static_cast<double>(exec_worker_utilization.size());
}

util::Table RunReport::to_table(const std::string& title) const {
  util::Table t(title);
  t.header({"column", "value", "unit", "meaning"});
  const std::uint16_t groups = applicable_groups(*this);
  for (const Column& c : kColumns) {
    if ((c.group & groups) == 0) continue;
    t.row({std::string(c.name), c.cell(*this),
           c.unit == kText ? "" : std::string(c.unit),
           std::string(c.meaning)});
  }
  const double mk = sim::to_ns(makespan);
  auto pct = [mk](sim::Time v) {
    return mk > 0.0 ? util::fmt_f(100.0 * sim::to_ns(v) / mk, 1) + "%"
                    : std::string("-");
  };
  for (const auto& s : stages) {
    t.row({"stage " + s.name, pct(s.busy) + " / " + pct(s.stall),
           "% makespan", "busy / stalled"});
  }
  return t;
}

std::vector<std::string> RunReport::csv_header() {
  std::vector<std::string> names;
  for (const Column& c : kColumns) names.emplace_back(c.name);
  return names;
}

std::vector<std::string> RunReport::csv_row() const {
  const std::uint16_t groups = applicable_groups(*this);
  std::vector<std::string> cells;
  for (const Column& c : kColumns) {
    cells.push_back((c.group & groups) != 0 ? c.cell(*this) : std::string());
  }
  return cells;
}

void RunReport::write_json_members(std::ostream& os) const {
  const std::uint16_t groups = applicable_groups(*this);
  const char* sep = "";
  for (const Column& c : kColumns) {
    os << sep;
    sep = ", ";
    obs::write_json_string(os, c.name);
    os << ": ";
    if ((c.group & groups) == 0) {
      os << "null";
    } else if (c.unit == kText) {
      obs::write_json_string(os, c.cell(*this));
    } else {
      os << c.cell(*this);
    }
  }
  const auto& per_worker = exec_worker_utilization;
  os << ", \"exec_worker_utilization_per_worker\": [";
  for (std::size_t w = 0; w < per_worker.size(); ++w) {
    os << (w == 0 ? "" : ", ") << frac(per_worker[w]);
  }
  const auto [lo, hi] =
      std::minmax_element(per_worker.begin(), per_worker.end());
  os << "], \"exec_worker_utilization_min\": "
     << (per_worker.empty() ? "null" : frac(*lo))
     << ", \"exec_worker_utilization_max\": "
     << (per_worker.empty() ? "null" : frac(*hi)) << ", \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    os << (i == 0 ? "{\"name\": " : ", {\"name\": ");
    obs::write_json_string(os, stages[i].name);
    os << ", \"busy_ns\": " << ns(stages[i].busy)
       << ", \"stall_ns\": " << ns(stages[i].stall) << "}";
  }
  os << "]";
}

}  // namespace nexuspp::engine
