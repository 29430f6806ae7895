#include "engine/engine.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "nexus/system.hpp"
#include "obs/critical_path.hpp"

namespace nexuspp::engine {

namespace {

/// Seals a recorder into the report: derived obs_* columns from the
/// critical-path analysis plus the raw timeline as an equality-neutral
/// payload (see TimelinePayload).
void attach_timeline(RunReport& report, obs::TimelineRecorder&& recorder) {
  obs::Timeline timeline = std::move(recorder).finish();
  const obs::TimelineAnalysis analysis = obs::analyze(timeline);
  report.obs_critical_path_ns = analysis.critical_path_ns;
  report.obs_critical_path_tasks = analysis.critical_path_tasks;
  report.obs_slack_mean_ns = analysis.slack_mean_ns;
  report.obs_slack_max_ns = analysis.slack_max_ns;
  report.obs_resolution_overhead_frac = analysis.resolution_overhead_frac;
  report.obs_timeline_events = analysis.events;
  report.obs_timeline_dropped = analysis.dropped;
  report.timeline.data =
      std::make_shared<const obs::Timeline>(std::move(timeline));
}

}  // namespace

std::string EngineParams::label() const {
  std::ostringstream os;
  os << "w=" << num_workers;
  if (buffering_depth != 0) os << " depth=" << buffering_depth;
  if (task_pool_capacity != 0) os << " tp=" << task_pool_capacity;
  if (dep_table_capacity != 0) os << " dt=" << dep_table_capacity;
  if (kick_off_capacity != 0) os << " ko=" << kick_off_capacity;
  if (tds_buffer_capacity != 0) os << " tds=" << tds_buffer_capacity;
  if (banks != 0) os << " banks=" << banks;
  if (contention.has_value()) {
    switch (*contention) {
      case hw::ContentionModel::kNone: os << " mem=free"; break;
      case hw::ContentionModel::kPorts: os << " mem=ports"; break;
      case hw::ContentionModel::kBanked: os << " mem=banked"; break;
    }
  }
  if (enable_task_prep.has_value()) {
    os << " prep=" << (*enable_task_prep ? "on" : "off");
  }
  if (allow_dummies.has_value()) {
    os << " dummies=" << (*allow_dummies ? "on" : "off");
  }
  if (match_mode.has_value()) {
    os << " match=" << core::to_string(*match_mode);
  }
  if (threads != 0) os << " threads=" << threads;
  if (kernel.has_value()) os << " kernel=" << exec::to_string(*kernel);
  if (timeline.enabled) os << " timeline=on";
  return os.str();
}

// --- NexusEngine --------------------------------------------------------------

nexus::NexusConfig NexusEngine::apply(nexus::NexusConfig base,
                                      const EngineParams& params) {
  base.num_workers = params.num_workers;
  if (params.buffering_depth != 0) {
    base.buffering_depth = params.buffering_depth;
  }
  if (params.task_pool_capacity != 0) {
    base.task_pool.capacity = params.task_pool_capacity;
  }
  if (params.dep_table_capacity != 0) {
    base.dep_table.capacity = params.dep_table_capacity;
  }
  if (params.kick_off_capacity != 0) {
    base.dep_table.kick_off_capacity = params.kick_off_capacity;
  }
  if (params.tds_buffer_capacity != 0) {
    base.tds_buffer_capacity = params.tds_buffer_capacity;
  }
  if (params.contention.has_value()) {
    base.memory.contention = *params.contention;
  }
  if (params.enable_task_prep.has_value()) {
    base.enable_task_prep = *params.enable_task_prep;
  }
  if (params.allow_dummies.has_value()) {
    base.task_pool.allow_dummy_tasks = *params.allow_dummies;
    base.dep_table.allow_dummy_entries = *params.allow_dummies;
  }
  if (params.match_mode.has_value()) {
    base.dep_table.match_mode = *params.match_mode;
  }
  if (params.banks != 0) {
    base.banks = params.banks;
  }
  base.timeline = params.timeline;
  return base;
}

namespace {

/// SystemReport -> RunReport mapping. Bank telemetry is copied for banked
/// engines only; the others keep RunReport's banks == 0.
RunReport from_system_report(const nexus::SystemReport& src,
                             std::string engine_name,
                             const nexus::NexusConfig& cfg, bool banked) {
  RunReport r;
  r.engine = std::move(engine_name);
  r.makespan = src.makespan;
  r.tasks_expected = src.tasks_expected;
  r.tasks_submitted = src.tasks_submitted;
  r.tasks_completed = src.tasks_completed;
  r.deadlocked = src.deadlocked;
  r.diagnosis = src.diagnosis;
  r.stages = {
      {"master", src.master_active, src.master_stall},
      {"write-tp", src.write_tp_busy, src.write_tp_stall},
      {"check-deps", src.check_deps_busy, src.check_deps_stall},
      {"schedule", src.schedule_busy, 0},
      {"send-tds", src.send_tds_busy, 0},
      {"handle-finished", src.handle_finished_busy, 0},
  };
  r.num_workers = cfg.num_workers;
  r.total_exec_time = src.total_exec_time;
  r.avg_core_utilization = src.avg_core_utilization;
  r.turnaround_ns = src.turnaround_ns;
  r.mem_stats = src.mem_stats;
  r.ready_queue_peak = src.ready_queue_peak;
  r.tp_max_used = src.tp_stats.max_used_slots;
  r.tp_dummy_slots = src.tp_stats.dummy_slots_allocated;
  r.dt_max_live = src.dt_stats.max_live_slots;
  r.dt_longest_chain = src.dt_stats.longest_hash_chain;
  r.dt_ko_dummies = src.dt_stats.ko_dummy_allocations;
  r.raw_hazards = src.resolver_stats.raw_hazards;
  r.war_hazards = src.resolver_stats.war_hazards;
  r.waw_hazards = src.resolver_stats.waw_hazards;
  r.dt_lookups = src.dt_stats.lookups;
  r.dt_lookup_probes = src.dt_stats.lookup_probes;
  r.sim_events = src.sim_events;
  if (banked) {
    r.banks = src.banks;
    r.bank_conflict_wait = src.bank_conflict_wait;
    r.bank_busy_imbalance = src.bank_busy_imbalance;
    r.bank_occupancy_imbalance = src.bank_occupancy_imbalance;
    r.bank_peak_live = src.bank_peak_live;
    r.per_bank_max_live = src.per_bank_max_live;
  }
  return r;
}

}  // namespace

RunReport NexusEngine::run(std::unique_ptr<trace::TaskStream> stream) const {
  // Fresh system per invocation: NexusSystem itself is single-use.
  nexus::NexusConfig cfg = cfg_;
  std::unique_ptr<obs::TimelineRecorder> rec;
  if (cfg.timeline.enabled) {
    rec = std::make_unique<obs::TimelineRecorder>(
        name_, "sim", cfg.timeline.events_per_track);
    cfg.timeline_recorder = rec.get();
  }
  const nexus::SystemReport src =
      nexus::run_system(cfg, std::move(stream), /*require_success=*/false);
  RunReport r = from_system_report(src, name_, cfg, banked_);
  if (rec != nullptr) attach_timeline(r, std::move(*rec));
  return r;
}

// --- ThreadedExecEngine -------------------------------------------------------

exec::ExecConfig ThreadedExecEngine::apply(exec::ExecConfig base,
                                           const EngineParams& params) {
  base.threads = params.threads != 0 ? params.threads : params.num_workers;
  if (base.threads == 0) base.threads = 1;
  if (params.task_pool_capacity != 0) {
    base.task_pool_capacity = params.task_pool_capacity;
  }
  if (params.dep_table_capacity != 0) {
    base.dep_table_capacity = params.dep_table_capacity;
  }
  if (params.kick_off_capacity != 0) {
    base.kick_off_capacity = params.kick_off_capacity;
  }
  if (params.allow_dummies.has_value()) {
    base.allow_dummies = *params.allow_dummies;
  }
  if (params.match_mode.has_value()) {
    base.match_mode = *params.match_mode;
  }
  if (params.kernel.has_value()) {
    base.kernel.kind = *params.kernel;
  }
  base.timeline = params.timeline;
  return base;
}

RunReport ThreadedExecEngine::run(
    std::unique_ptr<trace::TaskStream> stream) const {
  // Fresh executor per invocation: ThreadedExecutor is single-use.
  exec::ExecConfig cfg = cfg_;
  std::unique_ptr<obs::TimelineRecorder> rec;
  if (cfg.timeline.enabled) {
    rec = std::make_unique<obs::TimelineRecorder>(
        name(), "wall", cfg.timeline.events_per_track);
    cfg.timeline_recorder = rec.get();
  }
  exec::ThreadedExecutor executor(cfg);
  const exec::ExecReport src = executor.run(std::move(stream));

  RunReport r;
  r.engine = name();
  // Real wall-clock time in the makespan slot: speedup-vs-baseline and the
  // table/CSV paths work unchanged, now over measured time.
  r.makespan = sim::ns_f(src.wall_ns);
  r.tasks_expected = src.tasks_expected;
  r.tasks_submitted = src.tasks_submitted;
  r.tasks_completed = src.tasks_completed;
  r.deadlocked = src.deadlocked;
  r.diagnosis = src.diagnosis;
  r.stages = {{"submit", sim::ns_f(src.submit_busy_ns),
               sim::ns_f(src.submit_stall_ns)}};
  r.num_workers = src.threads;
  r.total_exec_time = sim::ns_f(src.total_exec_ns);
  r.avg_core_utilization = src.avg_utilization;
  r.turnaround_ns = src.turnaround_ns;
  r.ready_queue_peak = src.ready_queue_peak;
  r.tp_max_used = src.tables.tp_max_used;
  r.tp_dummy_slots = src.tables.tp_dummy_slots;
  r.dt_max_live = src.tables.max_live_slots;
  r.dt_longest_chain = src.tables.longest_hash_chain;
  r.dt_ko_dummies = src.tables.ko_dummy_allocations;
  r.raw_hazards = src.resolver.raw_hazards;
  r.war_hazards = src.resolver.war_hazards;
  r.waw_hazards = src.resolver.waw_hazards;
  r.dt_lookups = src.tables.lookups;
  r.dt_lookup_probes = src.tables.lookup_probes;
  r.exec_tasks_per_sec = src.tasks_per_sec;
  r.exec_kernel = exec::to_string(src.kernel);
  r.exec_kernel_work_units = src.kernel_work_units;
  r.exec_worker_utilization = src.worker_utilization;
  if (rec != nullptr) attach_timeline(r, std::move(*rec));
  return r;
}

// --- SoftwareRtsEngine --------------------------------------------------------

rts::SoftwareRtsConfig SoftwareRtsEngine::apply(rts::SoftwareRtsConfig base,
                                                const EngineParams& params) {
  base.num_workers = params.num_workers;
  if (params.contention.has_value()) {
    base.memory.contention = *params.contention;
  }
  if (params.match_mode.has_value()) {
    base.match_mode = *params.match_mode;
  }
  return base;
}

RunReport SoftwareRtsEngine::run(
    std::unique_ptr<trace::TaskStream> stream) const {
  const rts::SoftwareRtsReport src =
      rts::run_software_rts(cfg_, std::move(stream));

  RunReport r;
  r.engine = name();
  r.makespan = src.makespan;
  r.tasks_expected = src.tasks_expected;
  r.tasks_submitted = src.tasks_submitted;
  r.tasks_completed = src.tasks_completed;
  r.deadlocked = src.deadlocked;
  r.diagnosis = src.diagnosis;
  // Everything the Task Maestro splits over six blocks runs on the one
  // master thread here; its stall time is implicit in the busy gap.
  r.stages = {{"master", src.master_busy, 0}};
  r.num_workers = cfg_.num_workers;
  r.total_exec_time = src.total_exec_time;
  r.avg_core_utilization = src.avg_core_utilization;
  r.turnaround_ns = src.turnaround_ns;
  r.mem_stats = src.mem_stats;
  r.raw_hazards = src.dep_stats.raw_hazards;
  r.war_hazards = src.dep_stats.war_hazards;
  r.waw_hazards = src.dep_stats.waw_hazards;
  return r;
}

}  // namespace nexuspp::engine
