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
  return base;
}

RunReport NexusEngine::run(std::unique_ptr<trace::TaskStream> stream) const {
  // Fresh system per invocation: NexusSystem itself is single-use.
  nexus::NexusConfig cfg = cfg_;
  std::unique_ptr<obs::TimelineRecorder> rec;
  if (timeline_.enabled) {
    rec = std::make_unique<obs::TimelineRecorder>(
        name_, "sim", timeline_.events_per_track);
    cfg.timeline_recorder = rec.get();
  }
  RunReport r =
      nexus::run_system(cfg, std::move(stream), /*require_success=*/false);
  r.engine = name_;
  if (!banked_) {
    // The paper's single table: no bank column applies.
    r.banks = 0;
    r.bank_conflict_wait = 0;
    r.bank_busy_imbalance = 0.0;
    r.bank_occupancy_imbalance = 0.0;
    r.bank_peak_live = 0;
    r.per_bank_max_live.clear();
  }
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
  return base;
}

RunReport ThreadedExecEngine::run(
    std::unique_ptr<trace::TaskStream> stream) const {
  // Fresh executor per invocation: ThreadedExecutor is single-use.
  exec::ExecConfig cfg = cfg_;
  std::unique_ptr<obs::TimelineRecorder> rec;
  if (timeline_.enabled) {
    rec = std::make_unique<obs::TimelineRecorder>(
        name(), "wall", timeline_.events_per_track);
    cfg.timeline_recorder = rec.get();
  }
  exec::ThreadedExecutor executor(cfg);
  RunReport r = executor.run(std::move(stream));
  r.engine = name();
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
  RunReport r = rts::run_software_rts(cfg_, std::move(stream));
  r.engine = name();
  return r;
}

}  // namespace nexuspp::engine
