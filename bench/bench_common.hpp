#pragma once
// Shared helpers for the bench binaries.
//
// Every bench binary runs stand-alone with no arguments (the benchmark
// sweep is `for b in build/bench_*; do $b; done`); heavyweight sweeps are
// gated behind NEXUSPP_BENCH_FULL=1. The paper's figures and tables all
// live in one driver, bench_paper_figures, one function per figure.
//
// All benches are declarative sweep specs over the unified engine layer:
// they describe a config grid (engine names x workloads x EngineParams),
// run it through the multi-threaded engine::SweepDriver, and emit results
// through the shared RunReport table/CSV path. Environment knobs:
//
//   NEXUSPP_SWEEP_THREADS=N  sweep worker threads (default 4)
//   NEXUSPP_BENCH_CSV=1|path also emit CSV (stdout or file)
//   NEXUSPP_BENCH_JSON=1|path also emit JSON (stdout or file)

#include <string>
#include <vector>

#include "engine/sweep.hpp"

namespace nexuspp::bench {

/// True when the full (slow) sweep was requested via NEXUSPP_BENCH_FULL=1.
[[nodiscard]] bool full_mode();

/// Sweep options from the environment (NEXUSPP_SWEEP_THREADS, default 4).
[[nodiscard]] engine::SweepOptions sweep_options();

/// Runs `spec` on the built-in registry with sweep_options() and prints a
/// one-line telemetry summary (points, threads, wall seconds).
[[nodiscard]] std::vector<engine::SweepResult> run_sweep(
    const engine::SweepSpec& spec);

/// Prints the standard results table (plus extra columns) where note()
/// prints.
void print(const std::string& title,
           const std::vector<engine::SweepResult>& results,
           const std::vector<engine::SweepDriver::Column>& extra = {});

/// print(), then write_rows(results).
void emit(const std::string& title,
          const std::vector<engine::SweepResult>& results,
          const std::vector<engine::SweepDriver::Column>& extra = {});

/// Writes `results` as CSV to NEXUSPP_BENCH_CSV and as JSON to
/// NEXUSPP_BENCH_JSON, each when set. A file target is truncated, so a
/// binary that runs several sweeps writes their rows in one call.
void write_rows(const std::vector<engine::SweepResult>& results);

/// Human commentary ("Expected shape: ...") and tables. Goes to stdout
/// normally, to stderr when a machine format targets stdout, so
/// `bench > data.csv` stays parseable end to end.
void note(const std::string& text);

}  // namespace nexuspp::bench
