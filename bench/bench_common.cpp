#include "bench_common.hpp"

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "util/flags.hpp"

namespace nexuspp::bench {

namespace {

[[noreturn]] void bad_env(const char* name, const std::string& value,
                          const char* expected) {
  throw std::invalid_argument(std::string(name) + "=" + value +
                              ": expected " + expected);
}

/// Where a machine format goes: nullopt when off (unset, empty or
/// 0/false/no), "" for stdout (1/true/yes), else a file path.
std::optional<std::string> target(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  if (const auto on = util::parse_bool(env)) {
    return *on ? std::optional<std::string>("") : std::nullopt;
  }
  return env;
}

/// A machine-format output, resolved and opened by open_outputs().
struct Output {
  explicit Output(const char* setting) : name(setting) {}

  void open() {
    const auto where = target(name);
    if (!where) return;
    if (where->empty()) {
      os = &std::cout;
      return;
    }
    path = *where;
    // Truncate: appending would stack duplicate CSV headers / concatenated
    // JSON arrays across runs. One file holds one run's output.
    file.open(path, std::ios::trunc);
    if (!file) {
      throw std::runtime_error(std::string(name) + "=" + path +
                               ": cannot open for writing");
    }
    os = &file;
  }

  void write(const std::function<void(std::ostream&)>& rows) {
    if (os == nullptr) return;
    rows(*os);
    if (!os->flush()) {
      throw std::runtime_error(std::string(name) + "=" +
                               (path.empty() ? "stdout" : path) +
                               ": write failed");
    }
  }

  const char* name;  ///< the environment setting
  std::string path;  ///< the file target; empty for stdout
  std::ofstream file;
  std::ostream* os = nullptr;  ///< null when off
};

Output g_csv("NEXUSPP_BENCH_CSV");
Output g_json("NEXUSPP_BENCH_JSON");
std::string g_timeline;

}  // namespace

void open_outputs(bool timeline) {
  (void)full_mode();
  (void)sweep_options();
  g_csv.open();
  g_json.open();
  if (!timeline) return;
  const char* env = std::getenv("NEXUSPP_BENCH_TIMELINE");
  g_timeline = env != nullptr ? env : "";
  if (g_timeline.empty()) return;
  if (!std::ofstream(g_timeline, std::ios::trunc)) {
    throw std::runtime_error("NEXUSPP_BENCH_TIMELINE=" + g_timeline +
                             ": cannot open for writing");
  }
}

const std::string& timeline_path() { return g_timeline; }

engine::StreamFactory stream(Tasks tasks) {
  return [tasks] { return std::make_unique<trace::VectorStream>(tasks); };
}

bool full_mode() {
  const char* env = std::getenv("NEXUSPP_BENCH_FULL");
  if (env == nullptr || env[0] == '\0') return false;
  if (const auto on = util::parse_bool(env)) return *on;
  bad_env("NEXUSPP_BENCH_FULL", env, "1, 0, true, false, yes or no");
}

engine::SweepOptions sweep_options() {
  engine::SweepOptions options;
  options.threads = 4;
  if (const char* env = std::getenv("NEXUSPP_SWEEP_THREADS")) {
    const auto threads = util::parse_count(env);
    if (!threads || *threads == 0) {
      bad_env("NEXUSPP_SWEEP_THREADS", env, "a count of at least 1");
    }
    options.threads = *threads;
  }
  return options;
}

std::vector<engine::SweepResult> run_sweep(const engine::SweepSpec& spec) {
  engine::SweepDriver driver(engine::EngineRegistry::builtins(),
                             sweep_options());
  auto results = driver.run(spec);
  // Telemetry goes to stderr: stdout stays clean for CSV/JSON consumers.
  std::cerr << "[sweep] " << results.size() << " points on "
            << driver.last_threads_used() << " threads in "
            << util::fmt_f(driver.last_wall_seconds(), 2) << " s\n";
  return results;
}

void note(const std::string& text) {
  const bool machine_stdout = g_csv.os == &std::cout || g_json.os == &std::cout;
  (machine_stdout ? std::cerr : std::cout) << text;
}

void print(const std::string& title,
           const std::vector<engine::SweepResult>& results,
           const std::vector<engine::SweepDriver::Column>& extra) {
  note(engine::SweepDriver::to_table(title, results, extra).to_string() +
       "\n");
}

void keep(std::vector<engine::SweepResult>& rows, const std::string& prefix,
          std::vector<engine::SweepResult> results) {
  for (auto& r : results) {
    r.spec.series = prefix + "/" + r.spec.resolved_series();
    rows.push_back(std::move(r));
  }
}

void write_rows(const std::vector<engine::SweepResult>& results) {
  g_csv.write([&](std::ostream& os) {
    engine::SweepDriver::write_csv(results, os);
  });
  g_json.write([&](std::ostream& os) {
    engine::SweepDriver::write_json(results, os);
  });
}

}  // namespace nexuspp::bench
