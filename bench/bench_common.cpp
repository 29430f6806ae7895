#include "bench_common.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>

namespace nexuspp::bench {

namespace {

/// "1"/"true" means stdout; anything else is a file path.
void emit_to(const char* env_value, const std::string& what,
             const std::function<void(std::ostream&)>& write) {
  const std::string value(env_value);
  if (value == "1" || value == "true") {
    write(std::cout);
    return;
  }
  // Truncate: appending would stack duplicate CSV headers / concatenated
  // JSON arrays across runs. One file holds one run's output.
  std::ofstream file(value, std::ios::trunc);
  if (!file) {
    std::cerr << "bench: cannot open " << value << " for " << what << "\n";
    return;
  }
  write(file);
}

}  // namespace

bool full_mode() {
  const char* env = std::getenv("NEXUSPP_BENCH_FULL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

engine::SweepOptions sweep_options() {
  engine::SweepOptions options;
  options.threads = 4;
  if (const char* env = std::getenv("NEXUSPP_SWEEP_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) options.threads = static_cast<unsigned>(parsed);
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
            << util::fmt_f(driver.last_wall_seconds(), 2)
            << " s (peak concurrency " << driver.last_peak_concurrency()
            << ")\n";
  return results;
}

namespace {

bool targets_stdout(const char* env_value) {
  return env_value != nullptr && (std::string(env_value) == "1" ||
                                  std::string(env_value) == "true");
}

bool machine_stdout() {
  return targets_stdout(std::getenv("NEXUSPP_BENCH_CSV")) ||
         targets_stdout(std::getenv("NEXUSPP_BENCH_JSON"));
}

}  // namespace

void note(const std::string& text) {
  (machine_stdout() ? std::cerr : std::cout) << text;
}

void print(const std::string& title,
           const std::vector<engine::SweepResult>& results,
           const std::vector<engine::SweepDriver::Column>& extra) {
  note(engine::SweepDriver::to_table(title, results, extra).to_string() +
       "\n");
}

void emit(const std::string& title,
          const std::vector<engine::SweepResult>& results,
          const std::vector<engine::SweepDriver::Column>& extra) {
  print(title, results, extra);
  write_rows(results);
}

void write_rows(const std::vector<engine::SweepResult>& results) {
  if (const char* env = std::getenv("NEXUSPP_BENCH_CSV")) {
    emit_to(env, "CSV", [&](std::ostream& os) {
      engine::SweepDriver::write_csv(results, os);
    });
  }
  if (const char* env = std::getenv("NEXUSPP_BENCH_JSON")) {
    emit_to(env, "JSON", [&](std::ostream& os) {
      engine::SweepDriver::write_json(results, os);
    });
  }
}

}  // namespace nexuspp::bench
