// The studies beyond the paper's figures in one driver: application-shaped
// trace files, Dependence Table banking, the real executor's thread
// curves, base vs range matching and the task-bench pattern matrix. Each
// study is one function below; each prints its table and the shape to
// expect. The halo-stencil and mixed-tiles traces that bank-scaling and
// match-modes both run are built once and shared.
//
// Runs argument-free. NEXUSPP_BENCH_FULL=1 enlarges every study's inputs.
// With NEXUSPP_BENCH_CSV / NEXUSPP_BENCH_JSON set, the sweep rows of every
// study go into one file of each kind, written at the end; each row's
// series is prefixed with its study (`bank-scaling/halo-stencil`,
// `pattern-matrix/metg/nexus++/fft`).

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/kernels.hpp"
#include "trace/io.hpp"
#include "workloads/factorization.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/grid.hpp"
#include "workloads/library.hpp"
#include "workloads/overlap.hpp"
#include "workloads/pattern.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

using bench::stream;
using bench::Tasks;
using engine::SweepResult;

workloads::HaloStencilConfig halo_config() {
  workloads::HaloStencilConfig halo;
  halo.blocks = bench::full_mode() ? 256 : 64;
  halo.steps = bench::full_mode() ? 16 : 8;
  return halo;
}

Tasks mixed_tiles() {
  workloads::MixedTilesConfig tiles;
  tiles.tiles = bench::full_mode() ? 128 : 32;
  tiles.rounds = bench::full_mode() ? 8 : 4;
  return workloads::make_mixed_tiles_trace(tiles);
}

/// The overlap workloads bank-scaling and match-modes both run: a halo
/// stencil and mixed-granularity tiles, whose accesses partially overlap
/// at different base addresses.
struct Inputs {
  workloads::HaloStencilConfig halo = halo_config();
  Tasks halo_tasks = workloads::make_halo_stencil_trace(halo);
  Tasks tile_tasks = mixed_tiles();
};

/// Application-shaped workloads, evaluated trace-driven: generate the four
/// application task streams (H.264 wavefront decode, tiled Cholesky, tiled
/// LU, sparse spatial decomposition), save each as a standard trace *file*,
/// and sweep the engines over the files — the full capture/replay pipeline
/// (trace_tool capture -> design_space --trace) as a bench, and the
/// scenario-diversity axis the trace-driven StarSs literature (CppSs,
/// Niethammer et al.) evaluates on instead of micro-patterns.
///
/// Grid: {nexus++, nexus-banked, software-rts} x four trace files, 16
/// workers, baseline per series = software-rts. Read off the table how the
/// hardware task manager's advantage shifts with application shape:
/// factorization DAGs have wide trailing-matrix fan-out (plenty of ready
/// tasks), the wavefront ramps, the sparse stream serializes along dense
/// clusters.
std::vector<SweepResult> app_traces() {
  const auto& library = workloads::WorkloadLibrary::builtins();

  // (name, library spec) — sized to seconds in default mode. Factorization
  // tiles are small (16x16 elements, ~4 us GEMMs) so dependency-resolution
  // throughput, not kernel time, shapes the comparison.
  const std::vector<std::pair<std::string, std::string>> apps = {
      {"wavefront-decode",
       bench::full_mode() ? "h264" : "h264:rows=60,cols=34"},
      {"tiled-cholesky", bench::full_mode()
                             ? "tiled-cholesky:tiles=24,tile-elems=16"
                             : "tiled-cholesky:tiles=12,tile-elems=16"},
      {"tiled-lu", bench::full_mode() ? "tiled-lu:tiles=20,tile-elems=16"
                                      : "tiled-lu:tiles=10,tile-elems=16"},
      {"spatial", bench::full_mode() ? "spatial:cells-x=32,cells-y=32"
                                     : "spatial"},
  };

  // Emit each workload as a binary trace file, then sweep over the files:
  // from here on the engines only ever see what was (re)loaded from disk.
  // The directory is per-process so concurrent invocations (dev run vs
  // CI on a shared machine) never clobber each other's files.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("nexuspp_app_traces." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  engine::SweepSpec spec;
  for (const auto& [name, wl_spec] : apps) {
    const auto path = (dir / (name + ".nxb")).string();
    trace::Trace trace;
    trace.tasks = *library.make_trace(wl_spec);
    trace.meta.set(trace::TraceMeta::kWorkload, wl_spec);
    trace.meta.set(trace::TraceMeta::kCapturedBy, "bench_scenarios");
    trace::save(path, trace);
    spec.workload_from_trace(name, path);
    bench::note("trace " + name + ": " +
                std::to_string(trace.tasks.size()) + " tasks -> " + path +
                "\n");
  }
  // workload_from_trace has loaded every file: the directory can go.
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // best-effort cleanup

  // One speedup series per workload, software-rts as the reference.
  engine::EngineParams params;
  params.num_workers = 16;
  for (const auto& app : apps) {
    for (const std::string engine :
         {"software-rts", "nexus++", "nexus-banked"}) {
      engine::PointSpec p;
      p.engine = engine;
      p.workload = app.first;
      p.params = params;
      p.series = app.first;
      p.baseline = engine == "software-rts";
      p.label = engine;
      spec.point(std::move(p));
    }
  }

  const auto results = bench::run_sweep(spec);

  bench::print("Application-shaped workloads from trace files "
               "(speedup vs software-rts, 16 workers)",
               results,
               {{"workload",
                 [](const SweepResult& r) { return r.spec.workload; }},
                {"tasks",
                 [](const SweepResult& r) {
                   return util::fmt_count(r.report.tasks_completed);
                 }}});

  bench::note(
      "Expected shape: the hardware engines beat software-rts most where "
      "ready tasks are plentiful (factorization trailing-matrix updates, "
      "post-ramp wavefront) and least where the graph itself serializes "
      "(sparse clusters). All rows must complete their full task count — "
      "these streams came off trace files, so any loss would be a "
      "capture/replay defect, not a generator artifact.\n");
  return results;
}

/// Bank-scaling study: how dependence-resolution throughput responds to
/// splitting the Dependence Table into address-interleaved banks.
///
/// One grid: {nexus++, nexus-banked x banks in {1, 2, 4, 8, 16}} on the
/// gaussian-elimination, halo-stencil, and mixed-granularity-tiles
/// workloads, 16 workers, range matching (the mode with real multi-entry
/// registration pressure; the overlap workloads exercise the multi-bank
/// registration rule). Series baseline = nexus++, so the speedup column
/// reads directly as "banked vs monolithic".
///
/// Three things to read off the table:
///   parity    — nexus-banked @ 1 bank must match nexus++ exactly (both
///               run the same nexus::NexusSystem; CI's bank-parity step
///               checks these rows in the CSV).
///   scaling   — conflict wait (cycles operations queued behind a busy
///               bank) falls as banks grow, and Check Deps / Handle
///               Finished rounds shorten toward the longest single-bank
///               chain.
///   imbalance — the home-region hash is not a load balancer: the per-bank
///               occupancy imbalance column shows how unevenly real
///               workloads spread, the cost side of the banking trade.
std::vector<SweepResult> bank_scaling(const Inputs& in) {
  workloads::GaussianConfig gauss;
  gauss.n = bench::full_mode() ? 64 : 28;

  // Fine-grain stencil: task bodies two orders of magnitude shorter, so
  // the Task Maestro — not worker execution — bounds the makespan. This is
  // the regime banking exists for.
  workloads::HaloStencilConfig fine = in.halo;
  fine.timing.mean_exec_ns = 250.0;
  fine.timing.mean_mem_ns = 100.0;

  engine::SweepSpec spec;
  spec.workload("gaussian",
                [gauss] { return workloads::make_gaussian_stream(gauss); });
  spec.workload("halo-stencil", stream(in.halo_tasks));
  spec.workload("mixed-tiles", stream(in.tile_tasks));
  spec.workload("fine-halo",
                stream(workloads::make_halo_stencil_trace(fine)));

  engine::EngineParams base;
  base.num_workers = 16;
  base.match_mode = core::MatchMode::kRange;

  for (const char* workload :
       {"gaussian", "halo-stencil", "mixed-tiles", "fine-halo"}) {
    // Monolithic reference first: the series baseline every banked point's
    // speedup is computed against.
    engine::PointSpec mono;
    mono.engine = "nexus++";
    mono.workload = workload;
    mono.params = base;
    mono.series = workload;
    mono.baseline = true;
    mono.label = "nexus++ (monolithic)";
    spec.point(mono);

    for (const std::uint32_t banks : {1u, 2u, 4u, 8u, 16u}) {
      engine::PointSpec p;
      p.engine = "nexus-banked";
      p.workload = workload;
      p.params = base;
      p.params.banks = banks;
      p.series = workload;
      p.label = std::to_string(banks) + (banks == 1 ? " bank" : " banks");
      spec.point(p);
    }
  }

  const auto results = bench::run_sweep(spec);

  bench::print(
      "Dependence-table bank scaling (range matching, 16 workers)", results,
      {{"conflict wait",
        [](const SweepResult& r) {
          return r.report.banks == 0
                     ? std::string("-")
                     : util::fmt_ns(sim::to_ns(r.report.bank_conflict_wait));
        }},
       {"imbalance busy/occ",
        [](const SweepResult& r) {
          return r.report.banks == 0
                     ? std::string("-")
                     : util::fmt_f(r.report.bank_busy_imbalance, 2) + "/" +
                           util::fmt_f(r.report.bank_occupancy_imbalance, 2);
        }},
       {"peak bank live", [](const SweepResult& r) {
          return r.report.banks == 0
                     ? std::string("-")
                     : util::fmt_count(r.report.bank_peak_live);
        }}});

  bench::note(
      "Expected shape: the 1-bank row reproduces the nexus++ baseline "
      "exactly (banks=1 is bit-identical). Conflict wait falls steeply "
      "with the bank count while the occupancy imbalance column grows — "
      "the hashed interleave spreads traffic, not hot addresses. Makespan "
      "speedup appears only where dependency resolution bounds the run: "
      "fine-halo (sub-microsecond tasks) gains steadily with banks, while "
      "the coarse-grain workloads keep their worker-bound makespans and "
      "only shed conflict wait.\n");
  return results;
}

/// Real-execution throughput: the exec-threads backend actually running
/// task graphs on worker threads, next to the simulated engines' predicted
/// makespans on the same streams.
///
/// Grid per workload:
///   exec-threads x threads {1, 2, 4, 8} — one speedup series with
///   threads=1 as baseline, so the speedup column reads as *measured*
///   parallel scaling, and the tasks/sec and per-worker-utilization
///   columns show where it goes.
///   nexus++ / software-rts (8 workers) — their own series; their makespan
///   column is simulated (predicted) time for the same stream, the number
///   the real wall-clock makespan of exec-threads sits next to.
///
/// Four workload regimes:
///   wavefront  — ~11.8 us kernels on a wide H.264-style frontier: the
///                scaling showcase (the ready queue stays deep, so worker
///                kernels overlap).
///   fine-dag   — 250 ns kernels on a chain-heavy random DAG:
///                resolver-bound, the regime where the master's per-task
///                cost (registration plus release) decides throughput.
///   fine-stream — ~100 ns kernels, wide fan-in (up to 6 params/task):
///                kernels are noise, resolution *is* the workload; its
///                thread curve shows how much CPU time workers beyond the
///                host's cores take from the master.
///   tiled-cholesky — the application-shaped factorization DAG.
///
/// Plotting a thread curve from the CSV artifact
/// (NEXUSPP_BENCH_CSV=curve.csv ./bench_scenarios): filter rows whose
/// series is "executor-throughput/<workload>/real", then plot
/// exec_tasks_per_sec against the thread count in the label.
///
/// Measured scaling is bounded by the *host's* cores — that is the point of
/// a real backend. On a starved host the wavefront rows still overlap
/// (deadline-based kernels progress while descheduled, as long as the
/// frontier is deeper than the scheduler quantum), while chain-heavy DAGs
/// collapse toward serial; the simulated rows show what a machine with as
/// many free cores as `workers` would do with the same streams.
///
/// Unlike the simulated studies this one runs its points *serially*
/// (sweep threads = 1): concurrent points would time-share cores with the
/// executor under measurement and corrupt the wall-clock numbers.
std::vector<SweepResult> executor_throughput() {
  const auto wavefront_tasks =
      workloads::WorkloadLibrary::builtins().make_trace(
          bench::full_mode() ? "h264:rows=120,cols=68" : "h264:rows=64,cols=48");

  workloads::RandomDagConfig fine;
  fine.num_tasks = bench::full_mode() ? 20'000 : 4'000;
  fine.addr_space = 96;
  fine.timing.mean_exec_ns = 250.0;
  fine.timing.mean_mem_ns = 100.0;

  // Resolution-bound: kernels of ~100 ns under a deep dependence web mean
  // nearly all wall clock is spent registering and releasing tasks.
  workloads::RandomDagConfig fine_stream;
  fine_stream.num_tasks = bench::full_mode() ? 30'000 : 6'000;
  fine_stream.addr_space = 48;  // dense RAW/WAR/WAW web
  fine_stream.max_params = 6;
  fine_stream.write_prob = 0.5;
  fine_stream.timing.mean_exec_ns = 100.0;
  fine_stream.timing.mean_mem_ns = 50.0;

  workloads::FactorizationConfig chol;
  chol.tiles = bench::full_mode() ? 12 : 8;
  chol.tile_elems = 32;

  engine::SweepSpec spec;
  spec.workload("wavefront", stream(wavefront_tasks));
  spec.workload("fine-dag", stream(workloads::make_random_dag_trace(fine)));
  spec.workload("fine-stream",
                stream(workloads::make_random_dag_trace(fine_stream)));
  spec.workload("tiled-cholesky",
                stream(workloads::make_cholesky_trace(chol)));

  // NEXUSPP_BENCH_TIMELINE=out.json additionally records a task timeline
  // on the fine-stream 4-thread point (the CI artifact).
  const std::string& timeline_path = bench::timeline_path();
  for (const char* workload :
       {"wavefront", "fine-dag", "fine-stream", "tiled-cholesky"}) {
    bool first = true;
    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
      engine::PointSpec p;
      p.engine = "exec-threads";
      p.workload = workload;
      p.params.threads = threads;
      p.params.timeline.enabled = !timeline_path.empty() &&
                                  std::string(workload) == "fine-stream" &&
                                  threads == 4;
      p.series = std::string(workload) + "/real";
      p.baseline = first;
      first = false;
      p.label = std::to_string(threads) +
                (threads == 1 ? " thread" : " threads");
      spec.point(p);
    }
    for (const char* sim_engine : {"nexus++", "software-rts"}) {
      engine::PointSpec p;
      p.engine = sim_engine;
      p.workload = workload;
      p.params.num_workers = 8;
      p.series = std::string(workload) + "/" + sim_engine;
      p.baseline = true;
      p.label = std::string(sim_engine) + " (simulated; 8w)";
      spec.point(p);
    }
  }

  // Serial execution: one point at a time owns the machine.
  engine::SweepDriver driver(engine::EngineRegistry::builtins(),
                             engine::SweepOptions{.threads = 1});
  const auto results = driver.run(spec);

  if (!timeline_path.empty()) {
    const auto written =
        engine::SweepDriver::export_timelines(results, timeline_path);
    for (const auto& path : written) {
      std::fprintf(stderr, "[timeline] wrote %s\n", path.c_str());
    }
  }

  bench::print(
      "Real vs simulated throughput (exec-threads wall clock; simulated "
      "rows are predicted time)",
      results,
      {{"tasks/sec",
        [](const SweepResult& r) {
          return r.report.exec_tasks_per_sec > 0.0
                     ? util::fmt_f(r.report.exec_tasks_per_sec, 0)
                     : std::string("-");
        }},
       {"worker util min-max",
        [](const SweepResult& r) {
          const auto& per_worker = r.report.exec_worker_utilization;
          if (per_worker.empty()) return std::string("-");
          const auto [lo, hi] =
              std::minmax_element(per_worker.begin(), per_worker.end());
          return util::fmt_f(100.0 * *lo, 0) + "-" +
                 util::fmt_f(100.0 * *hi, 0) + "%";
        }}});

  bench::note(
      "Expected shape: wavefront's wide frontier overlaps kernels, so its "
      "wall-clock makespan falls with threads (up to the host's cores); "
      "fine-dag and fine-stream are resolver-bound — the master alone "
      "registers and releases tasks, so their tasks/sec follows its "
      "per-task cost, holds roughly flat while workers fit the host's "
      "cores and drops once they outnumber them; the simulated rows are "
      "predicted time for a machine with `workers` free cores, the "
      "yardstick the measured rows sit next to.");
  return results;
}

/// Address-matching fidelity vs cost: base-address matching (the paper's
/// Table III semantics) against range matching on workloads whose accesses
/// partially overlap at different base addresses.
///
/// One grid: {nexus++, software-rts} x {halo-stencil, mixed-tiles,
/// h264-wavefront} x {match=base-addr, match=range}, baseline per series =
/// the base-addr point. Three things to read off the table:
///
///   fidelity — range mode detects RAW/WAR/WAW hazards the base-address
///              scheme silently misses on the overlap workloads (the
///              "hazards" column grows), so its makespan is *longer*: the
///              extra dependencies are real serialization that base mode
///              incorrectly ignores.
///   cost     — "dt probes/lookup" compares the per-lookup price: hash
///              chain walk (base) vs interval-index window scan (range).
///   control  — on the aligned, uniform-block wavefront the two modes must
///              agree on *behaviour*: identical hazard counts and ready
///              order, because every overlap there is an exact base match.
///              (Makespans track within a fraction of a percent but are not
///              bit-equal: range lookups cost different Cost receipts, so
///              Check-Deps timing shifts slightly.)
std::vector<SweepResult> match_modes(const Inputs& in) {
  workloads::GridConfig grid;
  grid.rows = 40;
  grid.cols = 32;

  engine::SweepSpec spec;
  spec.workload("halo-stencil", stream(in.halo_tasks));
  spec.workload("mixed-tiles", stream(in.tile_tasks));
  spec.workload("h264-wavefront", stream(workloads::make_grid_trace(grid)));

  engine::EngineParams base;
  base.num_workers = 8;
  base.match_mode = core::MatchMode::kBaseAddr;
  engine::EngineParams range = base;
  range.match_mode = core::MatchMode::kRange;
  spec.grid({"nexus++", "software-rts"},
            {"halo-stencil", "mixed-tiles", "h264-wavefront"}, {base, range});

  const auto results = bench::run_sweep(spec);

  bench::print(
      "Base-address vs range matching (hazard fidelity and lookup cost)",
      results,
      {{"workload",
        [](const SweepResult& r) { return r.spec.workload; }},
       {"hazards raw/war/waw",
        [](const SweepResult& r) {
          return util::fmt_count(r.report.raw_hazards) + "/" +
                 util::fmt_count(r.report.war_hazards) + "/" +
                 util::fmt_count(r.report.waw_hazards);
        }},
       {"dt probes/lookup", [](const SweepResult& r) {
          return r.report.dt_lookups > 0
                     ? util::fmt_f(r.report.dt_avg_lookup_probes(), 2)
                     : std::string("-");
        }}});

  bench::note(
      "Expected shape: on halo-stencil and mixed-tiles, range matching "
      "reports several times more hazards — real dependencies the "
      "base-address scheme silently drops (its makespans are optimistic: "
      "they schedule tasks the data is not ready for). Range lookups cost "
      "more probes (interval window scan vs hash hit). On the aligned "
      "h264-wavefront control the modes agree on hazard counts (makespans "
      "track within a fraction of a percent; lookup costs differ).\n");
  return results;
}

constexpr const char* kSimEngines[] = {"nexus++", "classic-nexus",
                                       "software-rts"};

/// task-bench pattern matrix: the nine timestep-grid dependence patterns
/// (docs/WORKLOADS.md) crossed with the engines, plus the benchmark's
/// headline metric — METG, the minimum effective task granularity.
///
/// Three grids:
///   matrix/<engine>  — every pattern at a fixed 5 us granularity on the
///                      simulated engines, 16 workers. The speedup column
///                      is relative makespan vs the stencil1d baseline, so
///                      it reads as "how much harder is this dependence
///                      structure on this resolver".
///   metg/<engine>/<pattern> — granularity ladders (task_ns halving per
///                      rung) for three structurally distinct patterns
///                      (stencil1d, fft, all-to-all) per engine; the rung
///                      where efficiency crosses 50% carries the ladder's
///                      METG in the metg_ns CSV column. Low METG = cheap
///                      dependence resolution sustains fine tasks.
///   exec-kernels     — the real exec-threads backend running the stencil
///                      grid with each kernel body (spin / compute /
///                      memory / imbalance / dgemm): same graph, same
///                      requested durations, different work character.
///                      Run serially so wall-clock numbers stay clean.
///
/// Plotting METG curves from the CSV artifact
/// (NEXUSPP_BENCH_CSV=metg.csv ./bench_scenarios): filter rows whose
/// series starts with "pattern-matrix/metg/", plot the efficiency column
/// against the task_ns in the label, one line per series; the metg_ns
/// column is nonzero exactly once per ladder, at the 50% crossing.
std::vector<SweepResult> pattern_matrix() {
  const bool full = bench::full_mode();
  const std::uint32_t width = full ? 32 : 16;
  const std::uint32_t steps = full ? 16 : 8;

  // --- Fixed-granularity matrix: all patterns x simulated engines -------
  engine::SweepSpec spec;
  for (const auto kind : workloads::all_pattern_kinds()) {
    workloads::PatternConfig cfg;
    cfg.kind = kind;
    cfg.width = width;
    cfg.steps = steps;
    spec.workload(workloads::to_string(kind),
                  stream(workloads::make_pattern_trace(cfg)));
  }
  // Classic Nexus cannot run the dense patterns at all: without dummy
  // tasks a descriptor holds at most 5 parameters, and all-to-all (W+1),
  // nearest and random-nearest (up to 2*radius+2) exceed that. Skipping
  // them up front — and saying so — is the honest result; the paper's
  // dummy-task mechanism exists precisely to remove this limit.
  const auto classic_can_run = [](workloads::PatternKind kind) {
    return kind != workloads::PatternKind::kAllToAll &&
           kind != workloads::PatternKind::kNearest &&
           kind != workloads::PatternKind::kRandomNearest;
  };
  for (const char* eng : kSimEngines) {
    const bool classic = std::string(eng) == "classic-nexus";
    bool first = true;
    for (const auto kind : workloads::all_pattern_kinds()) {
      if (classic && !classic_can_run(kind)) continue;
      engine::PointSpec p;
      p.engine = eng;
      p.workload = workloads::to_string(kind);
      p.params.num_workers = 16;
      if (classic) {
        // The pattern fan-out also overflows classic's default kick-off
        // list (no dummy entries); 32 is how a classic design sized for
        // these grids would ship.
        p.params.kick_off_capacity = 32;
      }
      p.series = std::string("matrix/") + eng;
      p.baseline = first;
      first = false;
      p.label = workloads::to_string(kind);
      spec.point(p);
    }
  }
  auto results = bench::run_sweep(spec);
  bench::note(
      "matrix/classic-nexus omits all-to-all, nearest and random-nearest: "
      "a dummy-less 5-parameter Task Pool descriptor can never hold their "
      "dependence sets (classic Nexus structural limit).");

  // --- METG ladders: engine x pattern ------------------------------------
  // Ladders are inherently sequential (each rung's efficiency decides
  // whether to descend), so they run through run_metg one at a time.
  engine::SweepDriver driver(engine::EngineRegistry::builtins(),
                             bench::sweep_options());
  for (const char* eng : kSimEngines) {
    for (const auto kind :
         {workloads::PatternKind::kStencil1D, workloads::PatternKind::kFft,
          workloads::PatternKind::kAllToAll}) {
      const bool classic = std::string(eng) == "classic-nexus";
      if (classic && !classic_can_run(kind)) {
        bench::note(std::string("METG ladder metg/") + eng + "/" +
                    workloads::to_string(kind) +
                    " skipped: dense dependence sets exceed the dummy-less "
                    "descriptor limit (see the matrix note).");
        continue;
      }
      engine::MetgSpec m;
      m.engine = eng;
      m.workload = std::string("pattern:") + workloads::to_string(kind);
      m.params.num_workers = 16;
      if (classic) {
        // Same kick-off sizing as the matrix points above.
        m.params.kick_off_capacity = 32;
      }
      m.start_task_ns = full ? 262'144 : 65'536;
      m.min_task_ns = full ? 64 : 256;
      m.series = std::string("metg/") + eng + "/" +
                 workloads::to_string(kind);
      m.workload_at = [kind, width,
                       steps](std::uint64_t task_ns) -> engine::StreamFactory {
        workloads::PatternConfig cfg;
        cfg.kind = kind;
        cfg.width = width;
        cfg.steps = steps;
        cfg.task_ns = task_ns;
        return stream(workloads::make_pattern_trace(cfg));
      };
      auto ladder = driver.run_metg(m);
      if (!ladder.error.empty()) {
        bench::note("METG ladder " + m.series + " aborted: " + ladder.error);
      }
      for (auto& rung : ladder.runs) results.push_back(std::move(rung));
    }
  }

  // --- Real executor: kernel bodies on the stencil grid -------------------
  {
    engine::SweepSpec espec;
    workloads::PatternConfig cfg;
    cfg.width = width;
    cfg.steps = steps;
    cfg.task_ns = 20'000;  // coarse enough that kernel character shows
    espec.workload("stencil1d", stream(workloads::make_pattern_trace(cfg)));
    bool first = true;
    for (const auto kind :
         {exec::KernelKind::kSpin, exec::KernelKind::kComputeBound,
          exec::KernelKind::kMemoryBound, exec::KernelKind::kLoadImbalance,
          exec::KernelKind::kComputeDgemm}) {
      engine::PointSpec p;
      p.engine = "exec-threads";
      p.workload = "stencil1d";
      p.params.threads = 4;
      p.params.kernel = kind;
      p.series = "exec-kernels";
      p.baseline = first;
      first = false;
      p.label = std::string("kernel=") + exec::to_string(kind);
      espec.point(p);
    }
    // Serial: measured points own the machine.
    engine::SweepDriver serial(engine::EngineRegistry::builtins(),
                               engine::SweepOptions{.threads = 1});
    for (auto& r : serial.run(espec)) results.push_back(std::move(r));
  }

  bench::print(
      "task-bench pattern matrix: patterns x engines, METG ladders, kernel "
      "bodies",
      results,
      {{"efficiency",
        [](const SweepResult& r) {
          const double e = engine::run_efficiency(r.report);
          return e > 0.0 ? util::fmt_f(100.0 * e, 1) + "%"
                         : std::string("-");
        }},
       {"METG",
        [](const SweepResult& r) {
          return r.report.metg_ns > 0.0 ? util::fmt_ns(r.report.metg_ns)
                                        : std::string("-");
        }},
       {"kernel / units",
        [](const SweepResult& r) {
          if (r.report.exec_kernel.empty()) return std::string("-");
          return r.report.exec_kernel + " / " +
                 util::fmt_count(r.report.exec_kernel_work_units);
        }}});

  bench::note(
      "Expected shape: in the matrix series all-to-all and random-nearest "
      "carry the densest dependence sets, so their makespans sit highest "
      "(speedup < 1 vs the stencil1d baseline); in the metg/ series the "
      "efficiency column decays as the label's task_ns shrinks, and the "
      "metg_ns column is nonzero exactly at each ladder's 50% crossing — "
      "engines with cheaper per-task resolution cross lower; in the "
      "exec-kernels series the work-units column scales with the kernel's "
      "calibrated unit cost while wall-clock makespans stay comparable, "
      "with imbalance the outlier (seeded skew stretches the critical "
      "path).");
  return results;
}

int run() {
  bench::open_outputs(/*timeline=*/true);
  const Inputs in;
  std::vector<SweepResult> rows;
  bench::keep(rows, "app-traces", app_traces());
  bench::keep(rows, "bank-scaling", bank_scaling(in));
  bench::keep(rows, "executor-throughput", executor_throughput());
  bench::keep(rows, "match-modes", match_modes(in));
  bench::keep(rows, "pattern-matrix", pattern_matrix());
  bench::write_rows(rows);
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() {
  try {
    return nexuspp::run();
  } catch (const std::exception& e) {
    std::cerr << "bench_scenarios: " << e.what() << "\n";
    return 1;
  }
}
