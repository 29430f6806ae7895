// Trace utility: the full capture/replay pipeline on the command line —
// generate or capture workload traces in this project's formats, inspect
// them, and replay them through any registered engine.
//
// Usage:
//   trace_tool summarize <file.nxt|file.nxb>
//   trace_tool convert <in.nxt|in.nxb> <out.nxt|out.nxb>
//   trace_tool generate <workload-spec> <out.nxt|out.nxb>
//   trace_tool capture <workload-spec> <out.nxt|out.nxb>
//              [--engine=...] [--cores=16] [--match-mode=base-addr|range]
//              [--banks=N] [--threads=N]
//              [--kernel=spin|compute|memory|imbalance|dgemm]
//              [--timeline=out.json]
//   trace_tool replay <file.nxt|file.nxb>
//              [--engine=...] [--cores=16] [--match-mode=...] [--banks=N]
//              [--threads=N] [--kernel=...]
//              [--timeline=out.json]
//   trace_tool --list-engines | --list-workloads
//
// A <workload-spec> is `name[:key=value,...]` resolved by the workload
// library, e.g. `tiled-cholesky:tiles=12`, `h264:rows=60,cols=34` or
// `gaussian:n=500`. `generate` writes the generator's records; `capture`
// additionally runs them through an engine and records the exact stream
// the engine consumed, stamped with provenance metadata. `replay` feeds a
// file back through an engine; engine, cores, match mode, banks, threads
// (the exec-threads worker pool) and kernel (its per-task work body) all
// default to the values
// recorded in the trace's own metadata (explicit flags win), so a bare
// `replay file` reproduces the captured run's report bit-identically —
// for the simulated engines; an exec-threads replay re-*measures*.

#include <iostream>

#include "engine/capture.hpp"
#include "engine/registry.hpp"
#include "engine/sweep.hpp"
#include "obs/trace_export.hpp"
#include "trace/io.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workloads/library.hpp"

namespace {

using namespace nexuspp;

int usage() {
  std::cerr
      << "usage: trace_tool summarize|convert|generate|capture|replay ...\n"
         "       trace_tool --list-engines | --list-workloads\n"
         "see the header comment of examples/trace_tool.cpp\n";
  return 2;
}

int list_engines() {
  for (const auto& name : engine::EngineRegistry::builtins().names()) {
    std::cout << name << "\n";
  }
  return 0;
}

int list_workloads() {
  const auto& lib = workloads::WorkloadLibrary::builtins();
  util::Table t("workload library");
  t.header({"name", "summary", "options"});
  for (const auto& name : lib.names()) {
    const auto& e = lib.info(name);
    t.row({e.name, e.summary, e.options});
  }
  std::cout << t.to_string();
  return 0;
}

void print_summary(const trace::Trace& trace) {
  const auto s = trace::summarize(trace.tasks);
  util::Table t("trace summary");
  t.header({"metric", "value"});
  for (const auto& [key, value] : trace.meta.entries()) {
    t.row({"meta " + key, value});
  }
  t.row({"tasks", util::fmt_count(s.tasks)});
  t.row({"mean exec", util::fmt_ns(s.mean_exec_ns)});
  t.row({"mean read bytes", util::fmt_f(s.mean_read_bytes, 0)});
  t.row({"mean write bytes", util::fmt_f(s.mean_write_bytes, 0)});
  t.row({"mean params", util::fmt_f(s.mean_params, 2)});
  t.row({"max params", std::to_string(s.max_params)});
  t.row({"distinct bases", util::fmt_count(s.distinct_bases)});
  t.row({"partially overlapping bases",
         util::fmt_count(s.partially_overlapping_bases)});
  std::cout << t.to_string();
}

/// Strict parse of a numeric trace-meta value: digits only, must fit
/// uint32. Corrupt or hand-edited metadata gets a descriptive error, the
/// same contract trace::io gives malformed files.
std::uint32_t meta_u32(const trace::TraceMeta& meta, const char* key,
                       std::uint32_t fallback) {
  const auto value = meta.get(key);
  if (!value) return fallback;
  try {
    std::size_t used = 0;
    const auto v = std::stoull(*value, &used);
    if (used != value->size() || v > 0xFFFF'FFFFull) {
      throw std::invalid_argument("out of range or trailing junk");
    }
    return static_cast<std::uint32_t>(v);
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("trace meta '") + key +
                             "': expected a 32-bit unsigned integer, got '" +
                             *value + "'");
  }
}

/// Engine knobs for a run: explicit flags win; otherwise the knobs
/// recorded in `meta` at capture time (so a bare `replay file` reproduces
/// the capture run). Capture/generate paths pass an empty meta.
engine::EngineParams params_for_run(const util::Flags& flags,
                                    const trace::TraceMeta& meta) {
  engine::EngineParams params;
  params.num_workers = flags.get_count(
      "cores", meta_u32(meta, trace::TraceMeta::kWorkers, 16));
  auto mode = flags.get("match-mode");
  if (!mode) mode = meta.get(trace::TraceMeta::kMatchMode);
  if (mode) params.match_mode = core::match_mode_from_string(*mode);
  params.banks =
      flags.get_count("banks", meta_u32(meta, trace::TraceMeta::kBanks, 0));
  params.threads = flags.get_count(
      "threads", meta_u32(meta, trace::TraceMeta::kThreads, 0));
  auto kernel = flags.get("kernel");
  if (!kernel) kernel = meta.get(trace::TraceMeta::kKernel);
  if (kernel) params.kernel = exec::kernel_kind_from_string(*kernel);
  params.timeline.enabled = flags.get("timeline").has_value();
  return params;
}

/// Saves the run's timeline when --timeline was given, with the JSON
/// object a sweep writes for the run embedded; returns false on write
/// failure.
bool maybe_export_timeline(const engine::RunReport& report,
                           const std::string& engine_name,
                           const std::string& workload,
                           const engine::EngineParams& params,
                           const util::Flags& flags) {
  const auto path = flags.get("timeline");
  if (!path.has_value()) return true;
  if (report.timeline.data == nullptr) {
    std::cerr << "[timeline] nothing recorded (run failed before start?)\n";
    return false;
  }
  engine::SweepResult run;
  run.spec.engine = engine_name;
  run.spec.workload = workload;
  run.spec.params = params;
  run.report = report;
  obs::TraceExportOptions options;
  options.report_json = engine::SweepDriver::to_json(run);
  if (!obs::save_chrome_trace(*report.timeline.data, *path, options)) {
    std::cerr << "error: cannot write timeline to " << *path << "\n";
    return false;
  }
  std::cerr << "[timeline] wrote " << *path
            << " (open at https://ui.perfetto.dev)\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The list commands are known booleans so they never swallow positionals.
  util::Flags flags(argc, argv, {"list-engines", "list-workloads"});
  try {
    if (flags.get_bool("list-engines", false)) return list_engines();
    if (flags.get_bool("list-workloads", false)) return list_workloads();
    const auto& args = flags.positional();
    if (args.empty()) return usage();
    const std::string& command = args[0];
    const auto& registry = engine::EngineRegistry::builtins();
    const auto& library = workloads::WorkloadLibrary::builtins();

    if (command == "summarize" && args.size() == 2) {
      print_summary(trace::load_trace(args[1]));
      return 0;
    }
    if (command == "convert" && args.size() == 3) {
      const auto trace = trace::load_trace(args[1]);
      trace::save(args[2], trace);
      std::cout << "wrote " << trace.tasks.size() << " tasks to " << args[2]
                << "\n";
      return 0;
    }
    if (command == "generate" && args.size() == 3) {
      const std::string& spec = args[1];
      trace::Trace trace;
      trace.tasks = *library.make_trace(spec);
      trace.meta.set(trace::TraceMeta::kWorkload, spec);
      trace.meta.set(trace::TraceMeta::kCapturedBy, "trace_tool generate");
      trace::save(args[2], trace);
      std::cout << "wrote " << trace.tasks.size() << " tasks to " << args[2]
                << "\n";
      print_summary(trace);
      return 0;
    }
    if (command == "capture" && args.size() == 3) {
      const std::string& spec = args[1];
      const std::string engine_name = flags.get_or("engine", "nexus++");
      const auto params = params_for_run(flags, trace::TraceMeta{});
      const auto eng = registry.make(engine_name, params);
      auto captured = engine::run_captured(*eng, library.make_stream(spec),
                                           &params, spec);
      captured.trace.meta.set(trace::TraceMeta::kCapturedBy,
                              "trace_tool capture");
      trace::save(args[2], captured.trace);
      std::cout << "captured " << captured.trace.tasks.size()
                << " tasks to " << args[2] << "\n\n"
                << captured.report
                       .to_table("capture run: " + spec + " on " +
                                 engine_name)
                       .to_string();
      if (!maybe_export_timeline(captured.report, engine_name, spec, params,
                                 flags)) {
        return 1;
      }
      return captured.report.deadlocked ? 1 : 0;
    }
    if (command == "replay" && args.size() == 2) {
      const auto trace = trace::load_trace(args[1]);
      print_summary(trace);
      // Default the engine and its knobs to the capture run's, recorded
      // in the trace — a bare replay reproduces the capture exactly.
      const std::string engine_name = flags.get_or(
          "engine",
          trace.meta.get(trace::TraceMeta::kEngine).value_or("nexus++"));
      const auto params = params_for_run(flags, trace.meta);
      const auto report = engine::replay(trace, registry, engine_name,
                                         params);
      std::cout << "\n"
                << report
                       .to_table("replay of " + args[1] + " on " +
                                 engine_name)
                       .to_string();
      if (!maybe_export_timeline(report, engine_name, args[1], params,
                                 flags)) {
        return 1;
      }
      return report.deadlocked ? 1 : 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
