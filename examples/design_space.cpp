// Interactive design-space exploration: sweep any one parameter (workers,
// buffering depth, Task Pool size, Dependence Table size, kick-off
// capacity) of any registered engine over a chosen workload and print
// speedup plus the relevant utilization counters — the tool you would use
// to size the hardware for a new application class, as Section IV-B of the
// paper does for H.264.
//
// The sweep is a declarative engine::SweepSpec run in parallel by the
// engine::SweepDriver; --engine selects any name in the EngineRegistry,
// --workload any `name[:key=value,...]` spec in the workload library, and
// --trace=<file.nxt|file.nxb> sweeps over a captured trace file instead
// of a generator.
//
// Usage: design_space [--workload=<spec>] [--trace=<file>]
//                     [--param=workers|depth|tp|dt|kickoff|banks|threads|
//                       pattern|kernel]
//                     [--engine=nexus++|classic-nexus|nexus-banked|
//                       software-rts|exec-threads]
//                     [--match-mode=base-addr|range] [--banks=N]
//                     [--threads=N]
//                     [--kernel=spin|compute|memory|imbalance|dgemm]
//                     [--cores=64] [--sweep-threads=4]
//                     [--csv] [--json] [--list-engines] [--list-workloads]
//                     [--timeline=out.json] [--timeline-point=N|all]
//
// --timeline records a task-timeline (Chrome-trace-event JSON, opens in
// Perfetto) for one sweep point — by default the first swept point after
// the 1-core reference; --timeline-point selects another index or `all`
// (each point i then writes out.pN.json). Works on every engine: simulated
// points export sim-clock timelines, exec-threads wall-clock ones.
//
// --threads is an *engine* knob (exec-threads worker pool); the sweep
// driver's own parallelism is --sweep-threads. --param=threads sweeps the
// worker pool of the real backend (and defaults --engine accordingly).
//
// --param=pattern sweeps the workload axis instead of an engine knob: all
// nine task-bench dependence patterns (docs/WORKLOADS.md) at fixed engine
// params; the base --workload spec (default `pattern`) supplies the grid
// options and must not pin `kind=` itself. --param=kernel sweeps the
// exec-threads kernel body (spin/compute/memory/imbalance/dgemm), and
// --kernel=<kind> fixes the body for any other sweep.

#include <iostream>

#include "engine/sweep.hpp"
#include "util/flags.hpp"
#include "workloads/library.hpp"
#include "workloads/pattern.hpp"

int main(int argc, char** argv) try {
  using namespace nexuspp;

  // csv/json/list-* are booleans: `design_space --csv results.txt`
  // must keep `results.txt` positional instead of swallowing it as the
  // flag's value.
  util::Flags flags(argc, argv,
                    {"csv", "json", "list-engines", "list-workloads"});
  // Read before the sweep runs, so a malformed value fails at once.
  const bool csv = flags.get_bool("csv", false);
  const bool json = flags.get_bool("json", false);
  const std::string param = flags.get_or("param", "workers");
  std::string workload = flags.get_or(
      "workload", param == "pattern" ? "pattern" : "h264");
  // Sweeping the banks axis only makes sense on the banked engine, and the
  // threads/kernel axes on the real executor; default accordingly so
  // `--param=banks` / `--param=threads` work bare.
  const std::string engine_name = flags.get_or(
      "engine", param == "banks" ? "nexus-banked"
                : param == "threads" || param == "kernel"
                    ? "exec-threads"
                    : "nexus++");
  const auto cores = flags.get_count("cores", 64);

  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  if (flags.get_bool("list-engines", false)) {
    for (const auto& name : registry.names()) std::cout << name << "\n";
    return 0;
  }
  if (flags.get_bool("list-workloads", false)) {
    for (const auto& name : library.names()) {
      std::cout << name << "  (" << library.info(name).options << ")\n";
    }
    return 0;
  }
  if (!registry.contains(engine_name)) {
    std::cerr << "unknown engine '" << engine_name << "' (registered:";
    for (const auto& name : registry.names()) std::cerr << " " << name;
    std::cerr << ")\n";
    return 1;
  }

  engine::SweepSpec spec;
  if (const auto path = flags.get("trace")) {
    // Replay mode: the swept workload is a captured trace file.
    workload = *path;
    spec.workload_from_trace(workload, *path);
  } else {
    spec.workload(workload, library.make_stream_factory(workload));
  }

  engine::EngineParams base;
  base.num_workers = cores;
  if (const auto mode = flags.get("match-mode")) {
    base.match_mode = core::match_mode_from_string(*mode);
  }
  base.banks = flags.get_count("banks", 0);
  base.threads = flags.get_count("threads", 0);
  if (const auto kernel = flags.get("kernel")) {
    base.kernel = exec::kernel_kind_from_string(*kernel);
  }
  if (base.kernel.has_value() && engine_name != "exec-threads") {
    std::cerr << "note: --kernel is the exec-threads kernel-body knob "
                 "(ignored by '"
              << engine_name << "')\n";
  }
  if (base.threads != 0 && engine_name != "exec-threads") {
    // --threads used to mean sweep parallelism (now --sweep-threads); on a
    // simulated engine the knob is a no-op, so say so instead of silently
    // accepting a likely-stale invocation.
    std::cerr << "note: --threads is the exec-threads worker-pool knob "
                 "(ignored by '"
              << engine_name
              << "'); sweep parallelism is --sweep-threads\n";
  }

  // Points are collected locally first so --timeline can flag its selected
  // point(s) before they are committed to the spec.
  std::vector<engine::PointSpec> points;

  // Single-core reference for speedups, as in the paper.
  {
    engine::PointSpec reference;
    reference.engine = engine_name;
    reference.workload = workload;
    reference.params = base;
    reference.params.num_workers = 1;
    reference.params.threads = 0;  // exec-threads: one worker thread
    reference.series = param;
    reference.baseline = true;
    reference.label = "1-core reference";
    points.push_back(std::move(reference));
  }

  auto add = [&](std::string label, auto mutate) {
    engine::PointSpec p;
    p.engine = engine_name;
    p.workload = workload;
    p.params = base;
    mutate(p.params);
    p.series = param;
    p.label = std::move(label);
    points.push_back(std::move(p));
  };

  if (param == "workers") {
    for (std::uint32_t w : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
      add(std::to_string(w) + " workers",
          [w](engine::EngineParams& p) { p.num_workers = w; });
    }
  } else if (param == "depth") {
    for (std::uint32_t d : {1u, 2u, 3u, 4u, 8u}) {
      add("depth " + std::to_string(d),
          [d](engine::EngineParams& p) { p.buffering_depth = d; });
    }
  } else if (param == "tp") {
    for (std::uint32_t s : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
      add("TP " + std::to_string(s),
          [s](engine::EngineParams& p) { p.task_pool_capacity = s; });
    }
  } else if (param == "dt") {
    for (std::uint32_t s : {256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
      add("DT " + std::to_string(s),
          [s](engine::EngineParams& p) { p.dep_table_capacity = s; });
    }
  } else if (param == "kickoff") {
    for (std::uint32_t k : {2u, 4u, 8u, 16u, 32u}) {
      add("kick-off " + std::to_string(k),
          [k](engine::EngineParams& p) { p.kick_off_capacity = k; });
    }
  } else if (param == "banks") {
    for (std::uint32_t b : {1u, 2u, 4u, 8u, 16u, 32u}) {
      add(std::to_string(b) + (b == 1 ? " bank" : " banks"),
          [b](engine::EngineParams& p) { p.banks = b; });
    }
  } else if (param == "threads") {
    for (std::uint32_t t : {1u, 2u, 4u, 8u, 16u}) {
      add(std::to_string(t) + (t == 1 ? " thread" : " threads"),
          [t](engine::EngineParams& p) { p.threads = t; });
    }
  } else if (param == "pattern") {
    // Workload axis, not an engine knob: all nine task-bench dependence
    // patterns at fixed params. The base --workload spec supplies the grid
    // options; each point gets its own `kind=` crossed in.
    if (flags.get("trace").has_value()) {
      std::cerr << "error: --param=pattern sweeps generator specs and "
                   "cannot combine with --trace\n";
      return 1;
    }
    if (workload.rfind("pattern", 0) != 0 ||
        workload.find("kind=") != std::string::npos) {
      std::cerr << "error: --param=pattern needs a `pattern[:opts]` base "
                   "workload without kind= (got '"
                << workload << "')\n";
      return 1;
    }
    for (const auto kind : workloads::all_pattern_kinds()) {
      std::string spec_str = workload;
      spec_str += workload.find(':') == std::string::npos ? ':' : ',';
      spec_str += "kind=";
      spec_str += workloads::to_string(kind);
      spec.workload(spec_str, library.make_stream_factory(spec_str));
      engine::PointSpec p;
      p.engine = engine_name;
      p.workload = spec_str;
      p.params = base;
      p.series = param;
      p.label = workloads::to_string(kind);
      points.push_back(std::move(p));
    }
  } else if (param == "kernel") {
    // Kernel-body comparison on the real executor: identical graph and
    // requested durations, different work character per task.
    for (const auto kind :
         {exec::KernelKind::kSpin, exec::KernelKind::kComputeBound,
          exec::KernelKind::kMemoryBound, exec::KernelKind::kLoadImbalance,
          exec::KernelKind::kComputeDgemm}) {
      add(std::string("kernel=") + exec::to_string(kind),
          [kind](engine::EngineParams& p) { p.kernel = kind; });
    }
  } else {
    std::cerr << "unknown parameter '" << param << "'\n";
    return 1;
  }

  const auto timeline_path = flags.get("timeline");
  if (timeline_path.has_value()) {
    const std::string sel = flags.get_or("timeline-point", "1");
    if (sel == "all") {
      for (auto& p : points) p.params.timeline.enabled = true;
    } else {
      const std::size_t want = flags.get_count("timeline-point", 1);
      if (want >= points.size()) {
        std::cerr << "error: --timeline-point=" << want
                  << " out of range (points: 0.." << points.size() - 1
                  << ")\n";
        return 1;
      }
      points[want].params.timeline.enabled = true;
    }
  }
  for (auto& p : points) spec.point(std::move(p));

  engine::SweepOptions options;
  // Sweep-driver parallelism; points on the real exec-threads backend get
  // the machine to themselves by default (they measure wall clock).
  options.threads = flags.get_count(
      "sweep-threads", engine_name == "exec-threads" ? 1 : 4);
  engine::SweepDriver driver(registry, options);
  const auto results = driver.run(spec);

  // With --csv/--json the table moves to stderr so stdout stays parseable.
  const bool machine = csv || json;
  (machine ? std::cerr : std::cout)
      << engine::SweepDriver::to_table(
                   "DSE: " + engine_name + " on " + workload + " vs " +
                       param + " (" + std::to_string(cores) +
                       " workers unless swept)",
                   results,
                   {{"master stall",
                     [](const engine::SweepResult& r) {
                       const auto* s = r.report.stage("master");
                       return util::fmt_ns(
                           sim::to_ns(s != nullptr ? s->stall : 0));
                     }},
                    {"CheckDeps stall",
                     [](const engine::SweepResult& r) {
                       const auto* s = r.report.stage("check-deps");
                       return util::fmt_ns(
                           sim::to_ns(s != nullptr ? s->stall : 0));
                     }},
                    {"KO dummies",
                     [](const engine::SweepResult& r) {
                       return util::fmt_count(r.report.dt_ko_dummies);
                     }}})
                   .to_string();
  std::cerr << "[sweep] " << results.size() << " points on "
            << driver.last_threads_used() << " threads in "
            << util::fmt_f(driver.last_wall_seconds(), 2) << " s\n";
  if (timeline_path.has_value()) {
    const auto written =
        engine::SweepDriver::export_timelines(results, *timeline_path);
    if (written.empty()) {
      std::cerr << "[timeline] no timeline recorded (selected point "
                   "failed?)\n";
    }
    for (const auto& p : written) {
      std::cerr << "[timeline] wrote " << p
                << " (open at https://ui.perfetto.dev)\n";
    }
  }
  if (csv) engine::SweepDriver::write_csv(results, std::cout);
  if (json) engine::SweepDriver::write_json(results, std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
