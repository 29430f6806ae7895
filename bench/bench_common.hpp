#pragma once
// Shared helpers for the bench drivers.
//
// Every bench binary runs stand-alone with no arguments (the benchmark
// sweep is `for b in build/bench_*; do $b; done`); heavyweight sweeps are
// gated behind NEXUSPP_BENCH_FULL=1. Two drivers run the sweeps, one
// function per figure or study: bench_paper_figures reproduces the paper's
// figures and tables, bench_scenarios runs the studies beyond them. Each
// writes one CSV/JSON at the end, every series prefixed with its figure or
// study (keep()).
//
// All benches are declarative sweep specs over the unified engine layer:
// they describe a config grid (engine names x workloads x EngineParams),
// run it through the multi-threaded engine::SweepDriver, and emit results
// through the shared RunReport table/CSV path. Environment knobs, read
// under util::Flags' value rules and resolved by open_outputs() before
// the first study; a value outside them throws std::invalid_argument
// ("NEXUSPP_BENCH_FULL=maybe: expected ..."), and a file target that
// cannot be opened std::runtime_error ("NEXUSPP_BENCH_CSV=/x/y.csv:
// cannot open for writing"), which each driver's main turns into exit 1:
//
//   NEXUSPP_BENCH_FULL=1|0   full-size sweeps (true/false, yes/no too;
//                            unset or empty is off)
//   NEXUSPP_SWEEP_THREADS=N  sweep worker threads, N >= 1 (default 4)
//   NEXUSPP_BENCH_CSV=1|0|path  CSV to stdout (1/true/yes), nowhere
//                            (0/false/no, unset or empty) or a file
//   NEXUSPP_BENCH_JSON=1|0|path  the same for JSON
//   NEXUSPP_BENCH_TIMELINE=path  bench_scenarios only: a Chrome-trace
//                            timeline file (unset or empty is off)

#include <memory>
#include <string>
#include <vector>

#include "engine/sweep.hpp"

namespace nexuspp::bench {

/// Resolves every knob above (NEXUSPP_BENCH_TIMELINE only when
/// `timeline`) and opens each file target, truncating it. Call before the
/// first study: it throws, naming the setting and its value, on a value
/// or a target the driver could not honour.
void open_outputs(bool timeline = false);

/// NEXUSPP_BENCH_TIMELINE as open_outputs() resolved it; empty when off.
[[nodiscard]] const std::string& timeline_path();

/// A materialized task stream, shared between the runs that replay it.
using Tasks = std::shared_ptr<const std::vector<trace::TaskRecord>>;

/// A workload whose every run replays `tasks`.
[[nodiscard]] engine::StreamFactory stream(Tasks tasks);

/// True when the full (slow) sweep was requested via NEXUSPP_BENCH_FULL.
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

/// Appends `results` to `rows`, each series prefixed with `prefix/` (a
/// figure or study), so one CSV/JSON tells the drivers' sweeps apart.
void keep(std::vector<engine::SweepResult>& rows, const std::string& prefix,
          std::vector<engine::SweepResult> results);

/// Writes `results` as CSV to NEXUSPP_BENCH_CSV and as JSON to
/// NEXUSPP_BENCH_JSON, each when set, into the targets open_outputs()
/// opened, so a driver writes all its rows in one call. Throws
/// std::runtime_error, naming the setting, when a write fails.
void write_rows(const std::vector<engine::SweepResult>& results);

/// Human commentary ("Expected shape: ...") and tables. Goes to stdout
/// normally, to stderr when a machine format targets stdout, so
/// `bench > data.csv` stays parseable end to end.
void note(const std::string& text);

}  // namespace nexuspp::bench
