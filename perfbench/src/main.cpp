// starbench: the repository benchmark's measuring program. perfbench/run.py
// builds it and runs it once per (workload, seed); README.md in this
// directory documents the workloads, metrics and the traced run.
//
//   starbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--inject-failure]
//
// Prints a human-readable report and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. Exits 1 when any
// check failed and 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

/// A metric BENCHMARK.json declares, with what it should move (per-layer).
struct MetricDoc {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
};

// Gated end-to-end metrics: every workload reports each of them.
constexpr MetricDoc kEndToEnd[] = {
    {"tasks_per_s", "1/s", "", ""},
    {"setup_s", "s", "", ""},
};

// Traced-run metrics. A workload that does not exercise a layer reports 0.
constexpr MetricDoc kPerLayer[] = {
    {"metg_us", "us", "(headline)", "pattern-metg"},
    {"coarse_efficiency", "frac", "(headline)", "pattern-metg"},
    {"sim_makespan_us", "us", "(headline)", "fine-stream (Gaussian)"},
    {"failed_frac", "frac", "(checks)", "all"},
    {"peak_rss_mib", "MiB", "(memory)", "all"},
    {"workloads.generate_ns_per_task", "ns", "setup_s",
     "fine-stream, pattern-metg, runtime-api"},
    {"core.submit_ns_per_task", "ns", "tasks_per_s", "fine-stream"},
    {"core.finish_ns_per_task", "ns", "tasks_per_s", "fine-stream"},
    {"core.probes_per_lookup", "count", "tasks_per_s", "fine-stream"},
    {"exec.resolver.submit_ns_per_task", "ns", "tasks_per_s; metg_us",
     "fine-stream; pattern-metg"},
    {"exec.resolver.finish_ns_per_task", "ns", "tasks_per_s; metg_us",
     "fine-stream; pattern-metg"},
    {"exec.submit_busy_ns_per_task", "ns", "metg_us; tasks_per_s",
     "pattern-metg; fine-stream"},
    {"exec.submit_stall_frac", "frac", "metg_us; tasks_per_s",
     "pattern-metg; fine-stream"},
    {"exec.worker_util", "frac", "coarse_efficiency; tasks_per_s",
     "pattern-metg; fine-stream"},
    {"exec.span.submit.ns_per_task", "ns", "tasks_per_s", "fine-stream"},
    {"exec.span.submit.per_task", "count", "tasks_per_s", "fine-stream"},
    {"exec.span.stall.ns_per_task", "ns", "tasks_per_s", "fine-stream"},
    {"exec.span.stall.per_task", "count", "tasks_per_s", "fine-stream"},
    {"exec.span.release.ns_per_task", "ns", "tasks_per_s", "fine-stream"},
    {"exec.span.release.per_task", "count", "tasks_per_s", "fine-stream"},
    {"exec.span.lock-wait.ns_per_task", "ns", "tasks_per_s", "fine-stream"},
    {"exec.span.lock-wait.per_task", "count", "tasks_per_s", "fine-stream"},
    {"exec.span.run.ns_per_task", "ns", "coarse_efficiency", "pattern-metg"},
    {"exec.span.run.per_task", "count", "coarse_efficiency", "pattern-metg"},
    {"exec.ready_to_run_p50_us", "us",
     "tasks_per_s; coarse_efficiency, metg_us", "fine-stream; pattern-metg"},
    {"exec.ready_to_run_p99_us", "us",
     "tasks_per_s; coarse_efficiency, metg_us", "fine-stream; pattern-metg"},
    {"exec.kernel.overshoot_ns", "ns", "coarse_efficiency", "pattern-metg"},
    {"engine.call_overhead_ms", "ms", "tasks_per_s", "fine-stream"},
    {"sim.events_per_task", "count", "(host speed of sim)",
     "fine-stream (Gaussian)"},
    {"sim.host_ns_per_event", "ns", "(host speed of sim)",
     "fine-stream (Gaussian)"},
    {"nexus.master.busy_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.write-tp.busy_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.check-deps.busy_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.schedule.busy_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.send-tds.busy_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.handle-finished.busy_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.master.stall_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.write-tp.stall_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.check-deps.stall_frac", "frac", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.worker_util", "frac", "sim_makespan_us", "fine-stream (Gaussian)"},
    {"nexus.ko_dummies_per_task", "count", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"nexus.tp_dummy_slots_per_task", "count", "sim_makespan_us",
     "fine-stream (Gaussian)"},
    {"runtime.submit_ns_per_task", "ns", "tasks_per_s", "runtime-api"},
    {"runtime.wait_all_ms", "ms", "tasks_per_s", "runtime-api"},
    {"runtime.start_stop_ms", "ms", "tasks_per_s", "runtime-api"},
    {"obs.tracing_overhead_frac", "frac", "(none: tracing is off)",
     "fine-stream, pattern-metg"},
    {"obs.dropped_events", "count", "(none: must be 0)",
     "fine-stream, pattern-metg"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "starbench: %s\nusage: starbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] "
               "[--inject-failure]\n",
               why.c_str());
  std::exit(2);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_json(bool correct, const Outcome& out,
                const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("# host: nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  SpanLog log(opt.trace);
  Outcome out;
  try {
    if (opt.workload == "fine-stream") {
      out = run_fine_stream(opt, log);
    } else if (opt.workload == "pattern-metg") {
      out = run_pattern_metg(opt, log);
    } else {
      out = run_runtime_api(opt, log);
    }
  } catch (const std::exception& e) {
    out.rep(std::string("workload aborted: ") + e.what());
  }
  const double failed_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) /
                               static_cast<double>(out.attempted);
  out.add_value("failed_frac", failed_frac, "frac", out.attempted);
  out.add_value("peak_rss_mib", peak_rss_mib(), "MiB", 1);
  const bool correct = out.failed == 0 && out.attempted > 0;

  std::printf("# steal share over measured reps: %.2f %%\n",
              100.0 * out.steal_frac);
  std::printf("# reps: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const std::string& why : out.failures) {
    std::printf("# CHECK FAILED: %s\n", why.c_str());
  }

  std::map<std::string, Metric> measured;
  for (const Metric& m : out.metrics) measured[m.name] = m;
  std::map<std::string, Metric> reported;
  if (!opt.trace) {
    std::printf("%-34s %16s %-6s %7s\n", "metric", "median", "unit",
                "samples");
    for (const Metric& m : out.metrics) {
      std::printf("%-34s %16.6g %-6s %7zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    for (const MetricDoc& doc : kEndToEnd) {
      const auto it = measured.find(doc.name);
      reported[doc.name] = it != measured.end()
                               ? it->second
                               : Metric{doc.name, 0.0, doc.unit, 0};
    }
  } else {
    std::printf("%-34s %14s %-6s %7s  %-40s %s\n", "per-layer metric",
                "median", "unit", "samples", "moves", "on");
    for (const MetricDoc& doc : kPerLayer) {
      const auto it = measured.find(doc.name);
      const Metric m = it != measured.end()
                           ? it->second
                           : Metric{doc.name, 0.0, doc.unit, 0};
      std::printf("%-34s %14.6g %-6s %7zu  %-40s %s\n", doc.name, m.value,
                  doc.unit, m.samples, doc.moves, doc.on);
      reported[doc.name] = m;
    }
    // Figures the workload measured that BENCHMARK.json does not declare
    // (e.g. a span kind added after the benchmark was defined).
    for (const Metric& m : out.metrics) {
      if (reported.count(m.name) == 0) {
        std::printf("# undeclared: %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    std::printf("# %-32s %9s %12s %12s\n", "benchmark span", "calls",
                "total_ms", "self_ms");
    std::map<std::string, std::array<double, 3>> by_name;
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      auto& row = by_name[log.spans()[i].name];
      row[0] += static_cast<double>(log.spans()[i].calls);
      row[1] += log.spans()[i].busy_ns;
      row[2] += log.self_ns(i);
    }
    for (const auto& [name, row] : by_name) {
      std::printf("# %-32s %9.0f %12.3f %12.3f\n", name.c_str(), row[0],
                  row[1] / 1e6, row[2] / 1e6);
    }
    if (!opt.spans_out.empty() && !log.write_json(opt.spans_out)) {
      std::printf("# could not write %s\n", opt.spans_out.c_str());
    }
  }
  print_json(correct, out, reported);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::usage;
  perfbench::Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--spans-out") {
        opt.spans_out = value();
      } else if (arg == "--inject-failure") {
        opt.inject_failure = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return perfbench::run(opt);
}
