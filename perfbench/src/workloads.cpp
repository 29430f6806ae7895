// The benchmark workloads. Each is a closed-loop batch run: one submitting
// thread pulls the whole task stream as fast as the runtime admits it.
// Every invocation builds its inputs, runs one untimed validation where
// the engine allows it, warms up untimed, times its set-up several times,
// then either measures end-to-end reps with tracing off or, in the traced
// run, gathers the per-layer figures.

#include <sched.h>

#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "bench.hpp"
#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "exec/executor.hpp"
#include "exec/kernels.hpp"
#include "exec/spin.hpp"
#include "runtime/runtime.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/pattern.hpp"
#include "workloads/random_dag.hpp"

namespace perfbench {
namespace {

namespace ng = nexuspp::engine;
namespace ex = nexuspp::exec;
namespace wl = nexuspp::workloads;
using nexuspp::trace::TaskRecord;
using Records = std::shared_ptr<const std::vector<TaskRecord>>;

// Every exec workload: two workers plus the submitting thread (three
// threads in all), the resolver split over four shards.
constexpr std::uint32_t kExecThreads = 2;
constexpr std::uint32_t kExecBanks = 4;
// Set-ups per invocation, spread evenly over the CPUs the process may use;
// setup_s is their median.
constexpr int kSetupReps = 16;
// Untimed warm-up: long enough to run the one-time calibrations and ride
// out the slow-start episode a freshly started process can see on a VM
// with CPU steal.
constexpr double kWarmupSeconds = 1.0;
constexpr int kMinReps = 3;
// Share of --seconds the traced run spends on engine reps; the rest is
// split between the single-thread replays and one more pass (fine-stream:
// the Gaussian simulation; pattern-metg: the kernel overshoot).
constexpr double kTracedRepShare = 0.7;
// Timeline ring size per track, in events per task: a task's run, release,
// finish, ready and counter events plus one lock-wait per shard it touches.
constexpr std::uint32_t kTimelineEventsPerTask = 16;
constexpr std::uint64_t kMetgTopRungNs = 65'536;
constexpr int kMetgRungs = 8;  // 65 536 ns halving down to 512 ns
// pattern-metg's tasks_per_s rung: 4 096 ns, the first rung below the 50 %
// crossing (METG is about 7 us on a 4-vCPU Xeon VM), where the master's
// per-task cost sets the pace as it does at METG. Finer rungs add worker
// wake-up latency, which swings with the load of the VM's host.
constexpr int kThroughputRung = 4;
constexpr std::uint32_t kRuntimeThreads = 2;
constexpr std::uint32_t kRuntimeCells = 4096;
constexpr std::uint32_t kRuntimeTasks = 100'000;

ng::EngineParams exec_params(std::uint64_t tasks_with_timeline) {
  ng::EngineParams p;
  p.threads = kExecThreads;
  p.banks = kExecBanks;
  if (tasks_with_timeline > 0) {
    p.timeline.enabled = true;
    p.timeline.events_per_track = static_cast<std::uint32_t>(
        tasks_with_timeline * kTimelineEventsPerTask);
  }
  return p;
}

std::unique_ptr<ng::Engine> make_engine(const std::string& name,
                                        const ng::EngineParams& params) {
  return ng::EngineRegistry::builtins().make(name, params);
}

std::unique_ptr<nexuspp::trace::TaskStream> stream_of(const Records& tasks) {
  return std::make_unique<nexuspp::trace::VectorStream>(tasks);
}

/// The executor's one-time calibrations, timed (part of setup_s).
double calibrate_ns(SpanLog& log) {
  const SpanLog::Scope span(log, "exec.calibrate", 0);
  const auto t0 = Clock::now();
  (void)ex::spin_iters_per_us();
  (void)ex::kernel_unit_ns(ex::KernelConfig{}.kind);
  return ns_since(t0);
}

struct Call {
  ng::RunReport report;
  double ns = 0.0;
};

Call timed_run(const ng::Engine& engine,
               std::unique_ptr<nexuspp::trace::TaskStream> stream,
               SpanLog& log, std::uint64_t rep) {
  const SpanLog::Scope span(log, "engine.run", rep);
  const auto t0 = Clock::now();
  ng::RunReport report = engine.run(std::move(stream));
  const double ns = ns_since(t0);
  return Call{std::move(report), ns};
}

/// Per-rep check shared by every engine workload. `inject` (self-test
/// hook) fails the first rep it sees.
std::string check_complete(const ng::RunReport& r, std::uint64_t expected,
                           bool& inject) {
  std::uint64_t completed = r.tasks_completed;
  if (inject) {
    inject = false;
    --completed;
  }
  if (r.deadlocked) return "deadlock diagnosed: " + r.diagnosis;
  if (r.tasks_expected != expected || completed != expected) {
    return "completed " + std::to_string(completed) + " of " +
           std::to_string(expected) + " tasks";
  }
  return {};
}

/// One untimed exec-threads run with a CompletionRecorder, its order
/// checked against the dependence oracle.
std::string validate_order(const Records& tasks,
                           const ng::EngineParams& params, SpanLog& log) {
  const SpanLog::Scope span(log, "exec.validation_run", 0);
  nexuspp::core::CompletionRecorder recorder;
  ex::ExecConfig cfg =
      ng::ThreadedExecEngine::apply(ex::ExecConfig{}, params);
  cfg.observer = &recorder;
  const ng::ThreadedExecEngine engine(cfg);
  const ng::RunReport r = engine.run(stream_of(tasks));
  bool no_inject = false;
  if (std::string p = check_complete(r, tasks->size(), no_inject);
      !p.empty()) {
    return "validation run: " + p;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> index_of;
  std::vector<std::vector<nexuspp::core::Param>> params_of;
  params_of.reserve(tasks->size());
  for (std::size_t i = 0; i < tasks->size(); ++i) {
    index_of.emplace((*tasks)[i].serial, i);
    params_of.push_back((*tasks)[i].params);
  }
  std::vector<std::uint64_t> order;
  for (const std::uint64_t serial : recorder.order()) {
    const auto it = index_of.find(serial);
    if (it == index_of.end()) {
      return "validation run: unknown serial " + std::to_string(serial);
    }
    order.push_back(it->second);
  }
  const std::string violation =
      nexuspp::core::GraphOracle::validate_completion_order(
          cfg.match_mode, params_of, order);
  return violation.empty() ? std::string{}
                           : "completion order: " + violation;
}

/// Calls `rep` until `seconds` have passed and at least `min_reps` ran.
template <typename Rep>
void repeat_for(double seconds, int min_reps, Rep&& rep) {
  const auto t0 = Clock::now();
  for (int n = 0; n < min_reps || ns_since(t0) < seconds * 1e9; ++n) rep();
}

/// Runs `rep`, turning an exception into a failed rep.
template <typename Rep>
void guarded(Outcome& out, Rep&& rep) {
  try {
    rep();
  } catch (const std::exception& e) {
    out.rep(std::string("exception: ") + e.what());
  }
}

// --- Exec-layer figures (fine-stream, pattern-metg traced runs) ---------------

/// Per-call exec-layer samples; reported as medians over calls.
struct ExecLayer {
  std::vector<double> call_overhead_ms;
  std::vector<double> submit_busy_ns;
  std::vector<double> submit_stall_frac;
  std::vector<double> worker_util;
  std::map<std::string, std::vector<double>> span_ns;
  std::map<std::string, std::vector<double>> span_count;
  std::vector<double> r2r_p50_us;
  std::vector<double> r2r_p99_us;
  std::vector<double> plain_ns;
  std::vector<double> traced_ns;
  std::uint64_t dropped = 0;

  void add_plain(const Call& c) {
    const auto& r = c.report;
    const double tasks = static_cast<double>(r.tasks_completed);
    const double makespan_ns = nexuspp::sim::to_ns(r.makespan);
    plain_ns.push_back(c.ns);
    call_overhead_ms.push_back((c.ns - makespan_ns) / 1e6);
    if (const ng::StageStat* s = r.stage("submit"); s != nullptr) {
      submit_busy_ns.push_back(nexuspp::sim::to_ns(s->busy) / tasks);
      submit_stall_frac.push_back(nexuspp::sim::to_ns(s->stall) /
                                  makespan_ns);
    }
    worker_util.push_back(r.avg_core_utilization);
  }

  /// Returns a problem when the timeline lost events.
  std::string add_traced(const Call& c) {
    traced_ns.push_back(c.ns);
    const TimelineFigures f = timeline_figures(c.report);
    const double tasks = static_cast<double>(c.report.tasks_completed);
    for (const auto& [kind, sum] : f.spans) {
      span_ns[kind].push_back(sum.first / tasks);
      span_count[kind].push_back(sum.second / tasks);
    }
    r2r_p50_us.push_back(percentile(f.ready_to_run_ns, 50.0) / 1e3);
    r2r_p99_us.push_back(percentile(f.ready_to_run_ns, 99.0) / 1e3);
    dropped += f.dropped;
    if (c.report.timeline.data == nullptr) return "traced run has no timeline";
    return f.dropped == 0 ? std::string{}
                          : "timeline dropped " + std::to_string(f.dropped) +
                                " events";
  }

  void report(Outcome& out) const {
    out.add("engine.call_overhead_ms", call_overhead_ms, "ms");
    out.add("exec.submit_busy_ns_per_task", submit_busy_ns, "ns");
    out.add("exec.submit_stall_frac", submit_stall_frac, "frac");
    out.add("exec.worker_util", worker_util, "frac");
    // Kinds that never occurred in a rep count as 0 in that rep.
    for (const auto& [kind, values] : span_ns) {
      std::vector<double> ns = values;
      std::vector<double> count = span_count.at(kind);
      ns.resize(traced_ns.size(), 0.0);
      count.resize(traced_ns.size(), 0.0);
      out.add("exec.span." + kind + ".ns_per_task", ns, "ns");
      out.add("exec.span." + kind + ".per_task", count, "count");
    }
    out.add("exec.ready_to_run_p50_us", r2r_p50_us, "us");
    out.add("exec.ready_to_run_p99_us", r2r_p99_us, "us");
    out.add_value("obs.tracing_overhead_frac",
                  median(traced_ns) / median(plain_ns) - 1.0, "frac",
                  traced_ns.size());
    out.add_value("obs.dropped_events", static_cast<double>(dropped), "count",
                  traced_ns.size());
  }
};

void add_replays(Outcome& out, const std::vector<TaskRecord>& tasks,
                 SpanLog& log, double seconds) {
  std::vector<double> core_submit, core_finish, core_probes;
  std::vector<double> sh_submit, sh_finish;
  std::uint64_t rep = 0;
  repeat_for(seconds, kMinReps, [&] {
    ++rep;
    const ReplayCost c = replay_core(tasks, log, rep);
    out.rep(c.problem);
    if (c.problem.empty()) {
      core_submit.push_back(c.submit_ns_per_task);
      core_finish.push_back(c.finish_ns_per_task);
      core_probes.push_back(c.probes_per_lookup);
    }
    const ReplayCost s = replay_sharded(tasks, kExecBanks, log, rep);
    out.rep(s.problem);
    if (s.problem.empty()) {
      sh_submit.push_back(s.submit_ns_per_task);
      sh_finish.push_back(s.finish_ns_per_task);
    }
  });
  out.add("core.submit_ns_per_task", core_submit, "ns");
  out.add("core.finish_ns_per_task", core_finish, "ns");
  out.add("core.probes_per_lookup", core_probes, "count");
  out.add("exec.resolver.submit_ns_per_task", sh_submit, "ns");
  out.add("exec.resolver.finish_ns_per_task", sh_finish, "ns");
}

/// Times kSetupReps set-ups once the process is warm, so the slow-start
/// episode of a fresh process lands in the warm-up, not here. `build`
/// generates the inputs and constructs the engine; what it returns is
/// discarded after the clock stops (the inputs are a pure function of the
/// seed, so the live ones are identical). The one-time calibration ran at
/// first use and is added to every sample.
///
/// The set-ups take turns on every CPU the process may run on: single-
/// thread speed differs between the vCPUs of a shared host by up to 1.7x,
/// and a median over one CPU would depend on where the process started.
template <typename Build>
std::vector<double> timed_setups(double calibration_ns, Build&& build) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool pin = sched_getaffinity(0, sizeof(allowed), &allowed) == 0;
  std::vector<int> cpus;
  for (int c = 0; pin && c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  std::vector<double> seconds;
  for (int k = 0; k < kSetupReps; ++k) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(k) % cpus.size()], &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
    }
    const auto t0 = Clock::now();
    const auto fresh = build();
    seconds.push_back((calibration_ns + ns_since(t0)) * 1e-9);
  }
  if (pin) (void)sched_setaffinity(0, sizeof(allowed), &allowed);
  return seconds;
}

// --- Inputs -------------------------------------------------------------------

wl::RandomDagConfig fine_stream_config(std::uint64_t seed) {
  wl::RandomDagConfig cfg;
  cfg.num_tasks = 30'000;
  cfg.addr_space = 48;
  cfg.max_params = 6;
  cfg.write_prob = 0.5;
  cfg.timing.mean_exec_ns = 100.0;
  cfg.timing.mean_mem_ns = 50.0;
  cfg.seed = seed;
  return cfg;
}

wl::PatternConfig pattern_config(std::uint64_t seed, std::uint64_t task_ns) {
  wl::PatternConfig cfg;
  cfg.kind = wl::PatternKind::kRandomNearest;
  cfg.width = 32;
  cfg.steps = 64;
  cfg.radius = 2;
  cfg.fraction = 0.5;
  cfg.task_ns = task_ns;
  cfg.seed = seed;
  return cfg;
}

std::vector<Records> pattern_ladder(std::uint64_t seed) {
  std::vector<Records> rungs;
  for (int k = 0; k < kMetgRungs; ++k) {
    rungs.push_back(
        wl::make_pattern_trace(pattern_config(seed, kMetgTopRungNs >> k)));
  }
  return rungs;
}

/// runtime-api task: inout on `out`, in on `in_a` and `in_b`.
struct CellTask {
  std::uint32_t out = 0;
  std::uint32_t in_a = 0;
  std::uint32_t in_b = 0;
};

struct RuntimeInput {
  std::vector<std::uint64_t> cells;
  std::vector<CellTask> tasks;
};

RuntimeInput runtime_input(std::uint64_t seed) {
  nexuspp::util::Rng rng(seed);
  RuntimeInput in;
  in.cells.resize(kRuntimeCells);
  for (auto& c : in.cells) c = rng.next();
  in.tasks.resize(kRuntimeTasks);
  for (CellTask& t : in.tasks) {
    t.out = static_cast<std::uint32_t>(rng.below(kRuntimeCells));
    do {
      t.in_a = static_cast<std::uint32_t>(rng.below(kRuntimeCells));
    } while (t.in_a == t.out);
    do {
      t.in_b = static_cast<std::uint32_t>(rng.below(kRuntimeCells));
    } while (t.in_b == t.out || t.in_b == t.in_a);
  }
  return in;
}

/// The task body: order-sensitive mixing with unsigned wrap-around.
inline void mix(std::uint64_t* cells, const CellTask& t) {
  cells[t.out] = (cells[t.out] ^ (cells[t.in_a] + 0x9E3779B97F4A7C15ull)) *
                     0xBF58476D1CE4E5B9ull +
                 std::rotl(cells[t.in_b], 23);
}

// --- Simulator figures (fine-stream traced run) --------------------------------

/// The paper's Fig. 8 workload — Gaussian elimination, n = 500 (125 249
/// tasks, lazy stream) on nexus++ with 64 workers and paper defaults — for
/// the sim, nexus and hw figures. It takes no seed. Its host throughput
/// drifts too much on a shared VM to be gated, so it is measured here, in
/// a traced run, rather than as a workload of its own. The simulation
/// is deterministic: every rep must repeat the first rep's makespan and
/// event count exactly.
void add_gaussian_sim(Outcome& out, SpanLog& log, double seconds,
                      bool& inject) {
  const SpanLog::Scope span(log, "sim.gaussian", 0);
  wl::GaussianConfig cfg;
  cfg.n = 500;
  const std::uint64_t n = wl::gaussian_task_count(cfg.n);
  ng::EngineParams params;
  params.num_workers = 64;
  const auto engine = make_engine("nexus++", params);
  std::optional<ng::RunReport> ref;
  std::vector<double> host_ns_per_event;
  std::uint64_t rep = 0;
  repeat_for(seconds, kMinReps, [&] {
    guarded(out, [&] {
      const Call c =
          timed_run(*engine, wl::make_gaussian_stream(cfg), log, ++rep);
      std::string problem = check_complete(c.report, n, inject);
      if (problem.empty() && ref.has_value() &&
          (c.report.makespan != ref->makespan ||
           c.report.sim_events != ref->sim_events)) {
        problem = "simulated makespan or event count differs between reps";
      }
      out.rep(problem);
      if (!problem.empty()) return;
      if (!ref.has_value()) ref = c.report;
      host_ns_per_event.push_back(c.ns /
                                  static_cast<double>(c.report.sim_events));
    });
  });
  out.add("sim.host_ns_per_event", host_ns_per_event, "ns");
  if (!ref.has_value()) return;
  const double tasks = static_cast<double>(n);
  const double makespan_ns = nexuspp::sim::to_ns(ref->makespan);
  const std::size_t reps = host_ns_per_event.size();
  out.add_value("sim_makespan_us", makespan_ns / 1e3, "us", reps);
  out.add_value("sim.events_per_task",
                static_cast<double>(ref->sim_events) / tasks, "count", reps);
  for (const ng::StageStat& s : ref->stages) {
    out.add_value("nexus." + s.name + ".busy_frac",
                  nexuspp::sim::to_ns(s.busy) / makespan_ns, "frac", reps);
  }
  for (const char* stage : {"master", "write-tp", "check-deps"}) {
    if (const ng::StageStat* s = ref->stage(stage); s != nullptr) {
      out.add_value(std::string("nexus.") + stage + ".stall_frac",
                    nexuspp::sim::to_ns(s->stall) / makespan_ns, "frac", reps);
    }
  }
  out.add_value("nexus.worker_util", ref->avg_core_utilization, "frac", reps);
  out.add_value("nexus.ko_dummies_per_task",
                static_cast<double>(ref->dt_ko_dummies) / tasks, "count",
                reps);
  out.add_value("nexus.tp_dummy_slots_per_task",
                static_cast<double>(ref->tp_dummy_slots) / tasks, "count",
                reps);
}

// --- FNV-1a digest --------------------------------------------------------------

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  void add(const TaskRecord& r) {
    add(r.serial);
    add(r.fn);
    add(static_cast<std::uint64_t>(r.exec_time));
    add(r.read_bytes);
    add(r.write_bytes);
    for (const auto& p : r.params) {
      add(p.addr);
      add(p.size);
      add(static_cast<std::uint64_t>(p.mode));
    }
  }
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fine-stream",
                                                 "pattern-metg", "runtime-api"};
  return names;
}

std::uint64_t input_digest(const std::string& workload, std::uint64_t seed) {
  Digest d;
  if (workload == "fine-stream") {
    const Records tasks = wl::make_random_dag_trace(fine_stream_config(seed));
    for (const auto& r : *tasks) d.add(r);
  } else if (workload == "pattern-metg") {
    for (const Records& rung : pattern_ladder(seed)) {
      for (const auto& r : *rung) d.add(r);
    }
  } else {
    const RuntimeInput in = runtime_input(seed);
    for (const std::uint64_t c : in.cells) d.add(c);
    for (const CellTask& t : in.tasks) {
      d.add(t.out);
      d.add(t.in_a);
      d.add(t.in_b);
    }
  }
  return d.h;
}

// --- fine-stream ----------------------------------------------------------------

Outcome run_fine_stream(const Options& opt, SpanLog& log) {
  Outcome out;
  bool inject = opt.inject_failure;
  const wl::RandomDagConfig cfg = fine_stream_config(opt.seed);

  const double calib_ns = calibrate_ns(log);
  const Records tasks = wl::make_random_dag_trace(cfg);
  const auto engine = make_engine("exec-threads", exec_params(0));
  const std::uint64_t n = tasks->size();
  out.rep(validate_order(tasks, exec_params(0), log));

  std::uint64_t rep = 0;
  const auto plain_rep = [&] {
    Call c = timed_run(*engine, stream_of(tasks), log, ++rep);
    out.rep(check_complete(c.report, n, inject));
    return c;
  };
  repeat_for(kWarmupSeconds, 2, [&] { guarded(out, plain_rep); });

  std::vector<double> generate_ns;
  const std::vector<double> setup_s = timed_setups(calib_ns, [&] {
    const auto t0 = Clock::now();
    const SpanLog::Scope span(log, "workloads.make_random_dag_trace", 0);
    Records fresh = wl::make_random_dag_trace(cfg);
    generate_ns.push_back(ns_since(t0) / static_cast<double>(fresh->size()));
    return std::make_pair(std::move(fresh),
                          make_engine("exec-threads", exec_params(0)));
  });

  const CpuTimes cpu0 = read_cpu_times();
  if (!opt.trace) {
    std::vector<double> tasks_per_s;
    repeat_for(opt.seconds, kMinReps, [&] {
      guarded(out, [&] {
        const Call c = plain_rep();
        if (c.report.tasks_completed == n) {
          tasks_per_s.push_back(static_cast<double>(n) / (c.ns * 1e-9));
        }
      });
    });
    out.add("tasks_per_s", tasks_per_s, "1/s");
    out.add("setup_s", setup_s, "s");
  } else {
    const auto traced = make_engine("exec-threads", exec_params(n));
    ExecLayer layer;
    repeat_for(opt.seconds * kTracedRepShare, kMinReps, [&] {
      guarded(out, [&] { layer.add_plain(plain_rep()); });
      guarded(out, [&] {
        const Call c = timed_run(*traced, stream_of(tasks), log, ++rep);
        std::string problem = check_complete(c.report, n, inject);
        if (problem.empty()) problem = layer.add_traced(c);
        out.rep(problem);
      });
    });
    layer.report(out);
    const double rest = opt.seconds * (1.0 - kTracedRepShare) / 2.0;
    add_replays(out, *tasks, log, rest);
    add_gaussian_sim(out, log, rest, inject);
    out.add("workloads.generate_ns_per_task", generate_ns, "ns");
  }
  out.steal_frac = steal_share(cpu0, read_cpu_times());
  return out;
}

// --- pattern-metg ---------------------------------------------------------------

Outcome run_pattern_metg(const Options& opt, SpanLog& log) {
  Outcome out;
  bool inject = opt.inject_failure;

  const double calib_ns = calibrate_ns(log);
  const std::vector<Records> ladder = pattern_ladder(opt.seed);
  const auto engine = make_engine("exec-threads", exec_params(0));
  const std::uint64_t n = ladder.front()->size();
  out.rep(validate_order(ladder.back(), exec_params(0), log));

  std::vector<Rung> rungs(kMetgRungs);
  for (int k = 0; k < kMetgRungs; ++k) rungs[k].task_ns = kMetgTopRungNs >> k;
  std::vector<double> rung_tasks_per_s;
  std::uint64_t rep = 0;
  // One ladder rep: every rung once, coarse to fine.
  const auto ladder_rep = [&](bool keep, ExecLayer* layer) {
    for (int k = 0; k < kMetgRungs; ++k) {
      guarded(out, [&] {
        const Call c = timed_run(*engine, stream_of(ladder[k]), log, ++rep);
        const std::string problem = check_complete(c.report, n, inject);
        out.rep(problem);
        if (!problem.empty() || !keep) return;
        rungs[k].efficiency.push_back(ng::run_efficiency(c.report));
        if (k == kThroughputRung) {
          rung_tasks_per_s.push_back(
              static_cast<double>(n) /
              (nexuspp::sim::to_ns(c.report.makespan) * 1e-9));
        }
        if (layer != nullptr) layer->add_plain(c);
      });
    }
  };
  repeat_for(kWarmupSeconds, 2, [&] { ladder_rep(false, nullptr); });

  std::vector<double> generate_ns;
  const std::vector<double> setup_s = timed_setups(calib_ns, [&] {
    const auto t0 = Clock::now();
    const SpanLog::Scope span(log, "workloads.make_pattern_trace", 0);
    std::vector<Records> fresh = pattern_ladder(opt.seed);
    generate_ns.push_back(ns_since(t0) /
                          static_cast<double>(fresh.size() * n));
    return std::make_pair(std::move(fresh),
                          make_engine("exec-threads", exec_params(0)));
  });

  const CpuTimes cpu0 = read_cpu_times();
  if (!opt.trace) {
    repeat_for(opt.seconds, kMinReps, [&] { ladder_rep(true, nullptr); });
    out.add("tasks_per_s", rung_tasks_per_s, "1/s");
    out.add("setup_s", setup_s, "s");
  } else {
    const auto traced = make_engine("exec-threads", exec_params(n));
    ExecLayer layer;
    repeat_for(opt.seconds * kTracedRepShare, kMinReps, [&] {
      ladder_rep(true, &layer);
      for (int k = 0; k < kMetgRungs; ++k) {
        guarded(out, [&] {
          const Call c = timed_run(*traced, stream_of(ladder[k]), log, ++rep);
          std::string problem = check_complete(c.report, n, inject);
          if (problem.empty()) problem = layer.add_traced(c);
          out.rep(problem);
        });
      }
    });
    layer.report(out);
    const double rest = opt.seconds * (1.0 - kTracedRepShare) / 2.0;
    add_replays(out, *ladder.back(), log, rest);
    // Kernel overshoot: KernelBody::run wall time minus the request, over
    // every rung's duration.
    {
      const SpanLog::Scope span(log, "exec.kernel_body_run", 0);
      ex::KernelBody body(ex::ExecConfig{}.kernel, 0);
      std::vector<double> overshoot;
      const auto t0 = Clock::now();
      for (std::uint64_t serial = 0; ns_since(t0) < rest * 1e9; ++serial) {
        const std::uint64_t ns = kMetgTopRungNs >> (serial % kMetgRungs);
        const auto k0 = Clock::now();
        (void)body.run(ns, serial);
        overshoot.push_back(ns_since(k0) - static_cast<double>(ns));
      }
      out.add("exec.kernel.overshoot_ns", overshoot, "ns");
    }
    out.add("workloads.generate_ns_per_task", generate_ns, "ns");
  }
  out.steal_frac = steal_share(cpu0, read_cpu_times());
  for (const auto& [task_ns, efficiency] : rung_medians(rungs)) {
    std::printf("# rung %6llu ns: median efficiency %.4f\n",
                static_cast<unsigned long long>(task_ns), efficiency);
  }
  out.add_value("metg_us", metg_ns(rungs) / 1e3, "us",
                rungs.back().efficiency.size());
  out.add("coarse_efficiency", rungs.front().efficiency, "frac");
  return out;
}

// --- runtime-api ----------------------------------------------------------------

Outcome run_runtime_api(const Options& opt, SpanLog& log) {
  Outcome out;
  bool inject = opt.inject_failure;

  const RuntimeInput in = runtime_input(opt.seed);
  // Serial replay: what every rep's cells must equal.
  std::vector<std::uint64_t> expected = in.cells;
  for (const CellTask& t : in.tasks) mix(expected.data(), t);

  std::vector<std::uint64_t> cells;
  std::vector<double> tasks_per_s, submit_ns, wait_ms, start_stop_ms;
  std::uint64_t rep = 0;
  // One rep: a Runtime's whole lifetime, construction to destruction.
  // The traced run also times each call inside it.
  const auto runtime_rep = [&](bool keep) {
    guarded(out, [&] {
      cells = in.cells;
      std::uint64_t* const base = cells.data();
      const SpanLog::Scope span(log, "runtime.lifetime", ++rep);
      const bool traced = log.enabled();
      double submit_sum = 0.0, wait_ns = 0.0, ctor_ns = 0.0, dtor_ns = 0.0;
      const auto t0 = Clock::now();
      {
        auto rt = std::make_unique<nexuspp::starss::Runtime>(kRuntimeThreads);
        if (traced) ctor_ns = ns_since(t0);
        const double submit0 = traced ? log.now_ns() : 0.0;
        for (const CellTask& t : in.tasks) {
          const CellTask* task = &t;
          const auto s0 = traced ? Clock::now() : Clock::time_point{};
          rt->submit([base, task] { mix(base, *task); },
                     {nexuspp::starss::inout(base + t.out),
                      nexuspp::starss::in(base + t.in_a),
                      nexuspp::starss::in(base + t.in_b)});
          if (traced) submit_sum += ns_since(s0);
        }
        if (traced) {
          log.add_calls("runtime.submit", rep, in.tasks.size(), submit0,
                        log.now_ns(), submit_sum);
        }
        const auto w0 = Clock::now();
        {
          const SpanLog::Scope wait(log, "runtime.wait_all", rep);
          rt->wait_all();
        }
        wait_ns = ns_since(w0);
        const auto d0 = Clock::now();
        {
          const SpanLog::Scope stop(log, "runtime.destroy", rep);
          rt.reset();
        }
        dtor_ns = ns_since(d0);
      }
      const double call_ns = ns_since(t0);
      if (inject) {
        inject = false;
        cells[0] ^= 1;
      }
      const bool match = cells == expected;
      out.rep(match ? std::string{}
                    : "cells differ from the serial replay");
      if (!match || !keep) return;
      tasks_per_s.push_back(static_cast<double>(in.tasks.size()) /
                            (call_ns * 1e-9));
      if (traced) {
        submit_ns.push_back(submit_sum /
                            static_cast<double>(in.tasks.size()));
        wait_ms.push_back(wait_ns / 1e6);
        start_stop_ms.push_back((ctor_ns + dtor_ns) / 1e6);
      }
    });
  };
  repeat_for(kWarmupSeconds, 2, [&] { runtime_rep(false); });

  std::vector<double> generate_ns;
  const std::vector<double> setup_s = timed_setups(0.0, [&] {
    const auto t0 = Clock::now();
    const SpanLog::Scope span(log, "runtime_input", 0);
    RuntimeInput fresh = runtime_input(opt.seed);
    generate_ns.push_back(ns_since(t0) /
                          static_cast<double>(fresh.tasks.size()));
    return fresh;
  });

  const CpuTimes cpu0 = read_cpu_times();
  repeat_for(opt.seconds, kMinReps, [&] { runtime_rep(true); });
  out.steal_frac = steal_share(cpu0, read_cpu_times());
  if (!opt.trace) {
    out.add("tasks_per_s", tasks_per_s, "1/s");
    out.add("setup_s", setup_s, "s");
  } else {
    out.add("runtime.submit_ns_per_task", submit_ns, "ns");
    out.add("runtime.wait_all_ms", wait_ms, "ms");
    out.add("runtime.start_stop_ms", start_stop_ms, "ms");
    out.add("workloads.generate_ns_per_task", generate_ns, "ns");
  }
  return out;
}

}  // namespace perfbench
