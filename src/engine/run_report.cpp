#include "engine/run_report.hpp"

#include <sstream>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace nexuspp::engine {

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
  for (const double frac : exec_worker_utilization) sum += frac;
  return sum / static_cast<double>(exec_worker_utilization.size());
}

void RunReport::register_metrics(obs::MetricsRegistry& registry) const {
  registry.gauge("run.makespan_ns", sim::to_ns(makespan));
  registry.counter("run.tasks_completed",
                   static_cast<double>(tasks_completed));
  registry.gauge("run.avg_core_utilization", avg_core_utilization);
  for (const auto& s : stages) {
    registry.gauge("stage." + s.name + ".busy_ns", sim::to_ns(s.busy));
    registry.gauge("stage." + s.name + ".stall_ns", sim::to_ns(s.stall));
  }
  registry.counter("hazards.raw", static_cast<double>(raw_hazards));
  registry.counter("hazards.war", static_cast<double>(war_hazards));
  registry.counter("hazards.waw", static_cast<double>(waw_hazards));
  if (turnaround_ns.count() > 0) {
    const auto qs = turnaround_ns.percentiles({0.50, 0.95, 0.99});
    registry.histogram("task.turnaround_ns", turnaround_ns.count(),
                       turnaround_ns.mean() *
                           static_cast<double>(turnaround_ns.count()),
                       {{0.50, qs[0]}, {0.95, qs[1]}, {0.99, qs[2]}});
  }
  if (exec_tasks_per_sec > 0.0) {
    registry.gauge("exec.tasks_per_sec", exec_tasks_per_sec);
    registry.gauge("exec.worker_utilization_avg",
                   exec_worker_utilization_avg());
    registry.counter("exec.kernel_work_units",
                     static_cast<double>(exec_kernel_work_units));
  }
  if (metg_ns > 0.0) {
    registry.gauge("run.metg_ns", metg_ns);
  }
  if (banks > 0) {
    registry.gauge("bank.count", static_cast<double>(banks));
    registry.gauge("bank.conflict_wait_ns", sim::to_ns(bank_conflict_wait));
    registry.gauge("bank.busy_imbalance", bank_busy_imbalance);
    registry.gauge("bank.occupancy_imbalance", bank_occupancy_imbalance);
    registry.gauge("bank.peak_live", static_cast<double>(bank_peak_live));
  }
  if (obs_timeline_events > 0) {
    registry.gauge("obs.critical_path_ns", obs_critical_path_ns);
    registry.gauge("obs.critical_path_tasks",
                   static_cast<double>(obs_critical_path_tasks));
    registry.gauge("obs.slack_mean_ns", obs_slack_mean_ns);
    registry.gauge("obs.slack_max_ns", obs_slack_max_ns);
    registry.gauge("obs.resolution_overhead_frac",
                   obs_resolution_overhead_frac);
    registry.counter("obs.timeline_events",
                     static_cast<double>(obs_timeline_events));
    registry.counter("obs.timeline_dropped",
                     static_cast<double>(obs_timeline_dropped));
  }
}

util::Table RunReport::to_table(const std::string& title) const {
  util::Table t(title);
  t.header({"metric", "value"});
  t.row({"engine", engine});
  t.row({"makespan", util::fmt_ns(sim::to_ns(makespan))});
  t.row({"tasks completed", util::fmt_count(tasks_completed) + " / " +
                                util::fmt_count(tasks_expected)});
  if (deadlocked) t.row({"DEADLOCK", diagnosis});
  const double mk = sim::to_ns(makespan);
  auto pct = [mk](sim::Time v) {
    return mk > 0.0 ? util::fmt_f(100.0 * sim::to_ns(v) / mk, 1) + "%"
                    : std::string("-");
  };
  t.row({"workers", util::fmt_count(num_workers)});
  t.row({"avg core utilization",
         util::fmt_f(100.0 * avg_core_utilization, 1) + "%"});
  for (const auto& s : stages) {
    t.row({s.name + " busy / stalled", pct(s.busy) + " / " + pct(s.stall)});
  }
  if (turnaround_ns.count() > 0) {
    const auto ps = turnaround_ns.percentiles({0.50, 0.95, 0.99});
    t.row({"turnaround mean / p50 / p95 / p99",
           util::fmt_ns(turnaround_ns.mean()) + " / " +
               util::fmt_ns(ps[0]) + " / " + util::fmt_ns(ps[1]) + " / " +
               util::fmt_ns(ps[2])});
  }
  t.row({"memory transfers / contention wait",
         util::fmt_count(mem_stats.transfers) + " / " +
             util::fmt_ns(sim::to_ns(mem_stats.contention_wait))});
  if (tp_max_used > 0 || dt_max_live > 0) {
    t.row({"TP max used / dummy slots", util::fmt_count(tp_max_used) + " / " +
                                            util::fmt_count(tp_dummy_slots)});
    t.row({"DT max live / KO dummies / longest chain",
           util::fmt_count(dt_max_live) + " / " +
               util::fmt_count(dt_ko_dummies) + " / " +
               util::fmt_count(dt_longest_chain)});
  }
  if (total_hazards() > 0) {
    t.row({"hazards RAW / WAR / WAW", util::fmt_count(raw_hazards) + " / " +
                                          util::fmt_count(war_hazards) +
                                          " / " +
                                          util::fmt_count(waw_hazards)});
  }
  if (dt_lookups > 0) {
    t.row({"DT avg probes per lookup",
           util::fmt_f(dt_avg_lookup_probes(), 2)});
  }
  if (banks > 0) {
    t.row({"DT banks", util::fmt_count(banks)});
    t.row({"bank conflict wait",
           util::fmt_ns(sim::to_ns(bank_conflict_wait))});
    t.row({"bank busy / occupancy imbalance",
           util::fmt_f(bank_busy_imbalance, 2) + " / " +
               util::fmt_f(bank_occupancy_imbalance, 2)});
    t.row({"bank occupancy peak", util::fmt_count(bank_peak_live)});
  }
  if (exec_tasks_per_sec > 0.0) {
    t.row({"real throughput", util::fmt_f(exec_tasks_per_sec, 0) +
                                  " tasks/s (wall-clock)"});
    if (!exec_kernel.empty()) {
      t.row({"kernel body / work units",
             exec_kernel + " / " + util::fmt_count(exec_kernel_work_units)});
    }
    std::string workers;
    for (const auto frac : exec_worker_utilization) {
      if (!workers.empty()) workers += " ";
      workers += util::fmt_f(100.0 * frac, 0) + "%";
    }
    if (!workers.empty()) t.row({"per-worker utilization", workers});
  }
  if (obs_timeline_events > 0) {
    t.row({"critical path (tasks)",
           util::fmt_ns(obs_critical_path_ns) + " (" +
               util::fmt_count(obs_critical_path_tasks) + ")"});
    t.row({"slack mean / max", util::fmt_ns(obs_slack_mean_ns) + " / " +
                                   util::fmt_ns(obs_slack_max_ns)});
    t.row({"resolution overhead",
           util::fmt_f(100.0 * obs_resolution_overhead_frac, 1) + "%"});
    t.row({"timeline events / dropped",
           util::fmt_count(obs_timeline_events) + " / " +
               util::fmt_count(obs_timeline_dropped)});
  }
  if (metg_ns > 0.0) {
    t.row({"METG (50% efficiency)", util::fmt_ns(metg_ns)});
  }
  t.row({"ready queue peak", util::fmt_count(ready_queue_peak)});
  t.row({"sim events", util::fmt_count(sim_events)});
  return t;
}

std::vector<std::string> RunReport::csv_header() {
  return {"engine",
          "workers",
          "makespan_ns",
          "tasks_expected",
          "tasks_completed",
          "deadlocked",
          "avg_core_utilization",
          "total_exec_ns",
          "total_stall_ns",
          "turnaround_mean_ns",
          "turnaround_p50_ns",
          "turnaround_p95_ns",
          "turnaround_p99_ns",
          "mem_transfers",
          "mem_contention_wait_ns",
          "ready_queue_peak",
          "tp_max_used",
          "dt_max_live",
          "dt_longest_chain",
          "dt_ko_dummies",
          "raw_hazards",
          "war_hazards",
          "waw_hazards",
          "dt_avg_lookup_probes",
          "sim_events",
          "banks",
          "bank_conflict_ns",
          "bank_busy_imbalance",
          "bank_occupancy_imbalance",
          "bank_peak_live",
          "bank_max_live_per_bank",
          "exec_tasks_per_sec",
          "exec_kernel",
          "exec_kernel_work_units",
          "exec_worker_utilization",
          "obs_critical_path_ns",
          "obs_critical_path_tasks",
          "obs_slack_mean_ns",
          "obs_slack_max_ns",
          "obs_resolution_overhead_frac",
          "obs_timeline_events",
          "obs_timeline_dropped",
          "metg_ns"};
}

std::vector<std::string> RunReport::csv_row() const {
  auto f = [](double v) { return util::fmt_f(v, 3); };
  // One reservoir sort for all three turnaround quantiles.
  const auto turnaround_qs = turnaround_ns.percentiles({0.50, 0.95, 0.99});
  return {engine,
          std::to_string(num_workers),
          f(sim::to_ns(makespan)),
          std::to_string(tasks_expected),
          std::to_string(tasks_completed),
          deadlocked ? "1" : "0",
          util::fmt_f(avg_core_utilization, 4),
          f(sim::to_ns(total_exec_time)),
          f(sim::to_ns(total_stall())),
          f(turnaround_ns.mean()),
          f(turnaround_qs[0]),
          f(turnaround_qs[1]),
          f(turnaround_qs[2]),
          std::to_string(mem_stats.transfers),
          f(sim::to_ns(mem_stats.contention_wait)),
          std::to_string(ready_queue_peak),
          std::to_string(tp_max_used),
          std::to_string(dt_max_live),
          std::to_string(dt_longest_chain),
          std::to_string(dt_ko_dummies),
          std::to_string(raw_hazards),
          std::to_string(war_hazards),
          std::to_string(waw_hazards),
          f(dt_avg_lookup_probes()),
          std::to_string(sim_events),
          std::to_string(banks),
          f(sim::to_ns(bank_conflict_wait)),
          f(bank_busy_imbalance),
          f(bank_occupancy_imbalance),
          std::to_string(bank_peak_live),
          [this] {
            std::string packed;
            for (const auto live : per_bank_max_live) {
              if (!packed.empty()) packed += ';';
              packed += std::to_string(live);
            }
            return packed;
          }(),
          f(exec_tasks_per_sec),
          exec_kernel,
          std::to_string(exec_kernel_work_units),
          // Averaged to keep the column a single numeric cell; per-worker
          // values live in the JSON report (exec_worker_utilization_per_worker).
          util::fmt_f(exec_worker_utilization_avg(), 4),
          f(obs_critical_path_ns),
          std::to_string(obs_critical_path_tasks),
          f(obs_slack_mean_ns),
          f(obs_slack_max_ns),
          util::fmt_f(obs_resolution_overhead_frac, 4),
          std::to_string(obs_timeline_events),
          std::to_string(obs_timeline_dropped),
          f(metg_ns)};
}

}  // namespace nexuspp::engine
