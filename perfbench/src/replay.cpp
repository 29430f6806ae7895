// Per-layer figures that need no engine: single-thread replays of a
// workload's records through the core and exec resolvers, and the
// aggregation of an exec-threads timeline.
//
// Both replays follow the inline executor's order: submit in stream
// order, and when the tables are full, finish the oldest ready task
// (FIFO) and retry; drain the ready queue at the end. Capacities are the
// executor's defaults, so the tables see the load a real run gives them.

#include <deque>
#include <unordered_map>

#include "bench.hpp"
#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "exec/executor.hpp"
#include "exec/sharded_resolver.hpp"
#include "obs/timeline.hpp"

namespace perfbench {

namespace core = nexuspp::core;
namespace ex = nexuspp::exec;
using nexuspp::trace::TaskRecord;

ReplayCost replay_core(const std::vector<TaskRecord>& tasks, SpanLog& log,
                       std::uint64_t rep) {
  ReplayCost cost;
  const ex::ExecConfig defaults;
  core::TaskPoolConfig pool_cfg;
  pool_cfg.capacity = defaults.task_pool_capacity;
  core::DependenceTableConfig table_cfg;
  table_cfg.capacity = defaults.dep_table_capacity;
  table_cfg.kick_off_capacity = defaults.kick_off_capacity;

  const SpanLog::Scope span(log, "core.replay", rep);
  core::TaskPool pool(pool_cfg);
  core::DependenceTable table(table_cfg);
  core::Resolver resolver(pool, table);
  std::deque<core::TaskId> ready;
  double submit_ns = 0.0;
  double finish_ns = 0.0;
  const double start = log.now_ns();

  const auto finish_front = [&] {
    const core::TaskId id = ready.front();
    ready.pop_front();
    const auto t0 = Clock::now();
    const core::Resolver::FinishResult done = resolver.finish(id);
    pool.free_task(id);
    finish_ns += ns_since(t0);
    ready.insert(ready.end(), done.now_ready.begin(), done.now_ready.end());
  };

  for (const TaskRecord& r : tasks) {
    const core::TaskDescriptor td{r.fn, r.serial, r.params};
    for (;;) {
      const auto t0 = Clock::now();
      const auto inserted = pool.insert(td);
      if (!inserted.has_value()) {
        submit_ns += ns_since(t0);
        if (ready.empty()) {
          cost.problem = "core replay: task pool full, nothing ready";
          return cost;
        }
        finish_front();
        continue;
      }
      const core::Resolver::SubmitResult sub = resolver.submit(inserted->id);
      submit_ns += ns_since(t0);
      if (sub.stalled) {
        cost.problem = "core replay: dependence table full";
        return cost;
      }
      if (sub.ready) ready.push_back(inserted->id);
      break;
    }
  }
  while (!ready.empty()) finish_front();
  if (!pool.empty()) {
    cost.problem = "core replay: " + std::to_string(pool.used_slot_count()) +
                   " task slots never finished";
    return cost;
  }
  const double n = static_cast<double>(tasks.size());
  log.add_calls("core.submit", rep, tasks.size(), start, log.now_ns(),
                submit_ns);
  log.add_calls("core.finish", rep, tasks.size(), start, log.now_ns(),
                finish_ns);
  cost.submit_ns_per_task = submit_ns / n;
  cost.finish_ns_per_task = finish_ns / n;
  cost.probes_per_lookup = table.stats().avg_lookup_probes();
  return cost;
}

ReplayCost replay_sharded(const std::vector<TaskRecord>& tasks,
                          std::uint32_t shards, SpanLog& log,
                          std::uint64_t rep) {
  ReplayCost cost;
  ex::ExecConfig cfg;
  cfg.banks = shards;

  const SpanLog::Scope span(log, "exec.resolver.replay", rep);
  ex::ShardedResolver resolver(cfg.resolver_config(), tasks.size());
  std::deque<std::uint64_t> ready;
  std::vector<std::uint64_t> released;
  double submit_ns = 0.0;
  double finish_ns = 0.0;
  std::uint64_t finished = 0;
  const double start = log.now_ns();

  const auto finish_front = [&] {
    const std::uint64_t gid = ready.front();
    ready.pop_front();
    const auto t0 = Clock::now();
    resolver.finish(gid, released);
    finish_ns += ns_since(t0);
    ++finished;
    ready.insert(ready.end(), released.begin(), released.end());
  };

  for (std::uint64_t gid = 0; gid < tasks.size(); ++gid) {
    const TaskRecord& r = tasks[gid];
    std::vector<core::Param> params = r.params;
    auto t0 = Clock::now();
    auto session = resolver.begin_submit(gid, r.serial, r.fn, std::move(params));
    auto progress = session.advance();
    submit_ns += ns_since(t0);
    while (progress == ex::ShardedResolver::Progress::kStalled) {
      if (ready.empty()) {
        cost.problem = "sharded replay: shard full, nothing ready";
        return cost;
      }
      finish_front();
      t0 = Clock::now();
      progress = session.advance();
      submit_ns += ns_since(t0);
    }
    if (progress == ex::ShardedResolver::Progress::kStructural) {
      cost.problem = "sharded replay: " + session.failure();
      return cost;
    }
    if (session.ready()) ready.push_back(gid);
  }
  while (!ready.empty()) finish_front();
  if (finished != tasks.size()) {
    cost.problem = "sharded replay: finished " + std::to_string(finished) +
                   " of " + std::to_string(tasks.size()) + " tasks";
    return cost;
  }
  const double n = static_cast<double>(tasks.size());
  log.add_calls("exec.resolver.submit", rep, tasks.size(), start,
                log.now_ns(), submit_ns);
  log.add_calls("exec.resolver.finish", rep, tasks.size(), start,
                log.now_ns(), finish_ns);
  cost.submit_ns_per_task = submit_ns / n;
  cost.finish_ns_per_task = finish_ns / n;
  return cost;
}

TimelineFigures timeline_figures(const nexuspp::engine::RunReport& report) {
  TimelineFigures f;
  const auto& timeline = report.timeline.data;
  if (timeline == nullptr) return f;
  f.dropped = timeline->total_dropped();
  std::unordered_map<std::uint64_t, double> ready_at;
  std::unordered_map<std::uint64_t, double> run_at;
  for (const auto& track : timeline->tracks) {
    for (const auto& ev : track.events) {
      if (nexuspp::obs::is_span(ev.kind)) {
        auto& sum = f.spans[nexuspp::obs::to_string(ev.kind)];
        sum.first += ev.dur_ns;
        sum.second += 1.0;
      }
      if (ev.kind == nexuspp::obs::EventKind::kReady) {
        ready_at.emplace(ev.task, ev.ts_ns);
      } else if (ev.kind == nexuspp::obs::EventKind::kRun) {
        run_at.emplace(ev.task, ev.ts_ns);
      }
    }
  }
  f.ready_to_run_ns.reserve(run_at.size());
  for (const auto& [task, run_ts] : run_at) {
    const auto it = ready_at.find(task);
    if (it != ready_at.end()) f.ready_to_run_ns.push_back(run_ts - it->second);
  }
  return f;
}

}  // namespace perfbench
