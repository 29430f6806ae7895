// The paper's evaluation in one driver: Figs. 6-8, Table II, the Section V
// headline speedups, and the classic-Nexus, software-RTS and memory-model
// comparisons. Each figure or table is one function below; each prints
// its table and the shape the paper leads one to expect. The 120 x 68
// grids with H.264 task durations are built once and shared.
//
// Runs argument-free. NEXUSPP_BENCH_FULL=1 adds Fig. 8's 3000^2 and
// 5000^2 sizes, Table II's generator walks at those sizes and Fig. 6's
// full serial-vs-parallel sweep comparison. With NEXUSPP_BENCH_CSV /
// NEXUSPP_BENCH_JSON set, the sweep rows of every figure go into one file
// of each kind, written at the end; each row's series is prefixed with
// its figure (`fig6/dt-sweep`, `nexus-vs-classic/nexus++/gaussian-500`).
// Table II runs no sweep, so it prints its table only.

#include <iostream>
#include <stdexcept>

#include "bench_common.hpp"
#include "nexus/storage.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/grid.hpp"
#include "workloads/wide.hpp"

namespace nexuspp {
namespace {

using engine::SweepResult;
using workloads::GridPattern;
using Grid = std::shared_ptr<const std::vector<trace::TaskRecord>>;

/// The paper's 120 x 68 macroblock grid (8160 tasks, Cell H.264 task
/// durations) with `pattern`'s dependencies.
Grid grid(GridPattern pattern) {
  workloads::GridConfig cfg;
  cfg.pattern = pattern;
  return workloads::make_grid_trace(cfg);
}

engine::StreamFactory stream(Grid tasks) {
  return [tasks] { return workloads::make_grid_stream(tasks); };
}

/// Gaussian elimination of an n x n matrix. The stream is generated
/// lazily, so even the 12.5M-task 5000^2 graph never materializes.
engine::StreamFactory gaussian(std::uint32_t n) {
  workloads::GaussianConfig g;
  g.n = n;
  return [g] { return workloads::make_gaussian_stream(g); };
}

/// The grids several figures run.
struct Inputs {
  Grid independent = grid(GridPattern::kIndependent);
  Grid wavefront = grid(GridPattern::kWavefront);
};

/// A params axis over worker counts; the first entry becomes each
/// series' baseline under SweepSpec::grid.
std::vector<engine::EngineParams> worker_axis(
    const std::vector<std::uint32_t>& cores) {
  std::vector<engine::EngineParams> axis(cores.size());
  for (std::size_t i = 0; i < cores.size(); ++i) {
    axis[i].num_workers = cores[i];
  }
  return axis;
}

/// Row `row` of a speedup matrix over a SweepSpec::grid with `width`
/// worker counts per series: `lead`, then the series' speedups. A matrix
/// cannot show a failed point, so one ends the driver with an error.
std::vector<std::string> speedup_row(std::vector<std::string> lead,
                                     const std::vector<SweepResult>& results,
                                     std::size_t row, std::size_t width) {
  for (std::size_t i = row * width; i < (row + 1) * width; ++i) {
    const SweepResult& r = results[i];
    if (r.failed()) {
      throw std::runtime_error(
          r.spec.resolved_series() + " failed at " +
          std::to_string(r.spec.params.num_workers) + " cores: " +
          (r.error.empty() ? r.report.diagnosis : r.error));
    }
    lead.push_back(util::fmt_x(r.speedup));
  }
  return lead;
}

/// Fig. 6 of the paper: design-space exploration of the Task Maestro
/// table sizes, run on the independent-tasks benchmark with 256 worker
/// cores, double buffering and contention-free memory.
///
///   series dt-sweep — speedup vs Dependence Table size, Task Pool fixed
///                     at 8K, plus the longest hash chain the paper plots
///   series tp-sweep — speedup vs Task Pool size, Dependence Table at 8K
///
/// Each series' baseline is the single-core run with both tables large,
/// matching the paper's "speedup against the single core experiment".
/// The whole grid is one declarative SweepSpec executed by the
/// multi-threaded SweepDriver; the figure also re-runs it serially to
/// report the sweep parallelization speedup itself.
///
/// The paper picks DT = 4K (2K already reaches peak speedup but 4K halves
/// the chain length) and TP = 1K (512 suffices; 1K allows a larger
/// window).
std::vector<SweepResult> fig6(const Inputs& in) {
  engine::EngineParams base;
  base.num_workers = 256;
  base.buffering_depth = 2;
  base.contention = hw::ContentionModel::kNone;
  base.task_pool_capacity = 8192;
  base.dep_table_capacity = 8192;
  base.tds_buffer_capacity = 8192;

  engine::SweepSpec spec;
  spec.workload("independent", stream(in.independent));

  auto reference = [&](const std::string& series) {
    engine::PointSpec p;
    p.engine = "nexus++";
    p.workload = "independent";
    p.params = base;
    p.params.num_workers = 1;
    p.series = series;
    p.baseline = true;
    p.label = "1-core reference";
    return p;
  };

  spec.point(reference("dt-sweep"));
  for (const std::uint32_t dt_size : {256u, 512u, 1024u, 2048u, 4096u,
                                      8192u}) {
    engine::PointSpec p;
    p.engine = "nexus++";
    p.workload = "independent";
    p.params = base;
    p.params.dep_table_capacity = dt_size;
    p.series = "dt-sweep";
    p.label = "DT " + std::to_string(dt_size);
    spec.point(p);
  }

  spec.point(reference("tp-sweep"));
  for (const std::uint32_t tp_size : {128u, 256u, 512u, 1024u, 2048u,
                                      4096u, 8192u}) {
    engine::PointSpec p;
    p.engine = "nexus++";
    p.workload = "independent";
    p.params = base;
    p.params.task_pool_capacity = tp_size;
    p.series = "tp-sweep";
    p.label = "TP " + std::to_string(tp_size);
    spec.point(p);
  }

  auto results = bench::run_sweep(spec);
  bench::print(
      "Fig 6: Task Maestro table-size DSE (256 cores, double buffering, "
      "contention-free)",
      results,
      {{"longest chain",
        [](const SweepResult& r) {
          return std::to_string(r.report.dt_longest_chain);
        }},
       {"CheckDeps stall",
        [](const SweepResult& r) {
          const auto* s = r.report.stage("check-deps");
          return util::fmt_ns(sim::to_ns(s != nullptr ? s->stall : 0));
        }},
       {"DT max live",
        [](const SweepResult& r) {
          return util::fmt_count(r.report.dt_max_live);
        }},
       {"WriteTP stall",
        [](const SweepResult& r) {
          const auto* s = r.report.stage("write-tp");
          return util::fmt_ns(sim::to_ns(s != nullptr ? s->stall : 0));
        }},
       {"TP max used", [](const SweepResult& r) {
          return util::fmt_count(r.report.tp_max_used);
        }}});

  // The sweep itself is the parallelism showcase: measure the same spec
  // serial vs parallel. A full-grid re-run would double the figure's
  // cost, so outside NEXUSPP_BENCH_FULL=1 the comparison replays only the
  // dt-sweep series — still a genuine measured serial-vs-parallel number.
  engine::SweepSpec comparison;
  comparison.workload("independent", stream(in.independent));
  for (const auto& p : spec.points()) {
    if (bench::full_mode() || p.series == "dt-sweep") comparison.point(p);
  }
  engine::SweepDriver comparison_parallel(engine::EngineRegistry::builtins(),
                                          bench::sweep_options());
  (void)comparison_parallel.run(comparison);
  engine::SweepDriver comparison_serial(engine::EngineRegistry::builtins(),
                                        engine::SweepOptions{.threads = 1});
  (void)comparison_serial.run(comparison);
  bench::note(
      "Sweep parallelization (" +
      std::to_string(comparison.points().size()) + " points): " +
      util::fmt_f(comparison_serial.last_wall_seconds(), 2) +
      " s serial vs " +
      util::fmt_f(comparison_parallel.last_wall_seconds(), 2) + " s on " +
      std::to_string(comparison_parallel.last_threads_used()) +
      " threads (" +
      util::fmt_x(comparison_serial.last_wall_seconds() /
                  comparison_parallel.last_wall_seconds()) +
      " wall-clock speedup, peak concurrency " +
      std::to_string(comparison_parallel.last_peak_concurrency()) + ")\n\n");

  bench::note("Expected shape (paper): speedup saturates by DT = 2K and "
              "TP = 512; the longest chain keeps shrinking as the DT "
              "grows (about halving from 2K to 4K), which is why the "
              "paper selects DT = 4K and TP = 1K.\n");
  return results;
}

/// Fig. 7 of the paper: speedup vs worker-core count for the four
/// dependency patterns of Fig. 4 over the same 120 x 68 grid with H.264
/// task durations:
///
///   independent    — no dependencies: the scalability ceiling
///   wavefront (4a) — H.264 macroblock decoding: ramping parallelism
///   horizontal (4b)— chains aligned with generation order: the ready
///                    window starves (paper: saturates by ~8 cores)
///   vertical (4c)  — chains orthogonal to generation order: a steady
///                    `cols`-wide task supply (paper: scales to ~64)
///
/// Speedup is measured against the single-core run of the same pattern
/// with double buffering enabled, exactly as in the paper.
std::vector<SweepResult> fig7(const Inputs& in) {
  const std::vector<std::uint32_t> cores{1, 2, 4, 8, 16, 32, 64, 128, 256};
  const std::pair<GridPattern, Grid> patterns[] = {
      {GridPattern::kIndependent, in.independent},
      {GridPattern::kWavefront, in.wavefront},
      {GridPattern::kHorizontal, grid(GridPattern::kHorizontal)},
      {GridPattern::kVertical, grid(GridPattern::kVertical)}};

  engine::SweepSpec spec;
  std::vector<std::string> names;
  for (const auto& [pattern, tasks] : patterns) {
    names.emplace_back(workloads::to_string(pattern));
    spec.workload(names.back(), stream(tasks));
  }
  spec.grid({"nexus++"}, names, worker_axis(cores));
  auto results = bench::run_sweep(spec);

  util::Table table(
      "Fig 7: speedup vs cores per dependency pattern (8160 tasks, H.264 "
      "durations, double buffering, memory contention modeled)");
  std::vector<std::string> header{"pattern"};
  for (auto c : cores) header.push_back(std::to_string(c));
  table.header(header);
  for (std::size_t i = 0; i < names.size(); ++i) {
    table.row(speedup_row({names[i]}, results, i, cores.size()));
  }
  bench::note(table.to_string() + "\n");
  bench::note("Expected shape (paper): independent scales furthest "
              "(~54x at 64 cores); the wavefront tracks below it "
              "(ramp-up/down limits available parallelism); horizontal "
              "(4b) saturates around single-digit speedup; vertical (4c) "
              "scales well to ~64 cores.\n");
  return results;
}

/// Fig. 8 of the paper: speedup of Gaussian elimination with partial
/// pivoting for different matrix sizes on different multicore systems
/// (double buffering, memory contention modeled).
///
/// Default sweep: n in {250, 500, 1000} over 1..64 cores. The paper's
/// larger sizes (3000: 4.5M tasks; 5000: 12.5M tasks) are simulated too
/// when NEXUSPP_BENCH_FULL=1 — the streams are generated lazily so even
/// the 12.5M-task graph never materializes in memory.
///
/// Paper reference points: 5000^2 reaches 45x on 64 cores; 250^2
/// saturates around 2.3x on 4 cores.
std::vector<SweepResult> fig8() {
  const std::vector<std::uint32_t> cores{1, 2, 4, 8, 16, 32, 64};
  const bool full = bench::full_mode();

  std::vector<std::uint32_t> sizes{250, 500, 1000};
  if (full) {
    sizes.push_back(3000);
    sizes.push_back(5000);
  }
  engine::SweepSpec spec;
  std::vector<std::string> names;
  for (const std::uint32_t n : sizes) {
    names.push_back("gaussian-" + std::to_string(n));
    spec.workload(names.back(), gaussian(n));
  }
  spec.grid({"nexus++"}, names, worker_axis(cores));
  auto results = bench::run_sweep(spec);

  util::Table table(
      "Fig 8: Gaussian elimination speedup vs cores (double buffering, "
      "contention modeled)" +
      std::string(full ? "" :
                  " — sizes 3000/5000 with NEXUSPP_BENCH_FULL=1"));
  std::vector<std::string> header{"matrix dim", "# tasks"};
  for (auto c : cores) header.push_back(std::to_string(c));
  table.header(header);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    table.row(speedup_row(
        {std::to_string(sizes[i]),
         util::fmt_count(workloads::gaussian_task_count(sizes[i]))},
        results, i, cores.size()));
  }
  bench::note(table.to_string() + "\n");
  bench::note("Expected shape (paper): larger matrices scale further "
              "(more and coarser tasks); 250^2 saturates around 2.3x at "
              "4 cores; 5000^2 reaches ~45x at 64 cores. Dummy entries "
              "in the Dependence Table absorb the n-i dependants of each "
              "pivot row.\n");
  return results;
}

/// Table II of the paper: number of tasks and average task weight (FLOPs)
/// of Gaussian elimination with partial pivoting, for matrix dimensions
/// 250 / 500 / 1000 / 3000 / 5000.
///
/// Counts follow (n^2 + n - 2)/2 exactly; weights follow formula (1). The
/// closed-form values are cross-checked against an actual walk of the
/// streaming generator (for the sizes that are cheap to walk; all sizes
/// with NEXUSPP_BENCH_FULL=1).
void table2() {
  util::Table table(
      "Table II: Gaussian elimination tasks for different matrix sizes");
  table.header({"matrix dim", "# tasks", "paper # tasks",
                "avg weight (FLOPs)", "paper avg", "generator walk"});

  struct PaperRow {
    std::uint32_t n;
    std::uint64_t tasks;
    double avg;
  };
  // The paper's printed values. Its 3000/5000 averages (2012/3523) cannot
  // be produced by its own formula (1): total FLOPs over the
  // (n^2 + n - 2) / 2 tasks, about 2n/3, is 1999.3/3332.7, and the printed
  // values are 0.6 % and 5.7 % above it. The table prints both.
  const PaperRow paper[] = {{250, 31374, 167.0},
                            {500, 125249, 334.0},
                            {1000, 500499, 667.0},
                            {3000, 4501499, 2012.0},
                            {5000, 12502499, 3523.0}};

  for (const auto& row : paper) {
    const std::uint64_t count = workloads::gaussian_task_count(row.n);
    const double avg = workloads::gaussian_avg_weight(row.n);

    std::string walked = "-";
    if (row.n <= 1000 || bench::full_mode()) {
      workloads::GaussianConfig cfg;
      cfg.n = row.n;
      workloads::GaussianStream stream(cfg);
      std::uint64_t walked_count = 0;
      double walked_flops = 0.0;
      while (auto rec = stream.next()) {
        ++walked_count;
        walked_flops += sim::to_ns(rec->exec_time) * cfg.gflops_per_core;
      }
      walked = util::fmt_count(walked_count) + " tasks, avg " +
               util::fmt_f(walked_flops / static_cast<double>(walked_count),
                           1);
    }

    table.row({std::to_string(row.n), util::fmt_count(count),
               util::fmt_count(row.tasks), util::fmt_f(avg, 2),
               util::fmt_f(row.avg, 0), walked});
  }
  bench::note(table.to_string() + "\n");
  bench::note("Task counts match the paper exactly; average weights match "
              "for 250/500/1000 (rounded) while the paper's 3000/5000 "
              "entries disagree with its own formula (1).\n");
}

/// Headline experiments (paper Section V, first paragraphs + Table IV):
///
///   * independent-tasks benchmark, double buffering, 64 cores, memory
///     contention modeled            -> paper reports 54x
///   * 256 cores, contention-free    -> paper reports 143x
///   * 256 cores, contention-free, task-preparation delay disabled
///                                   -> paper reports 221x
///   * buffering-depth ablation (1 / 2 / 4) on the independent and H.264
///     workloads at 64 cores — the "double buffering" contribution.
///
/// Speedups are measured against the single-core run of the same
/// configuration family (double buffering enabled), as in the paper: each
/// family is one sweep series whose baseline is its 1-core point; the
/// depth ablation series use their depth-1 run as baseline.
std::vector<SweepResult> headline(const Inputs& in) {
  // Context tables (human-only): note() keeps them off a machine stdout.
  bench::note(
      nexus::NexusConfig::paper_defaults().describe().to_string() + "\n");
  // Section V storage claim: everything fits in ~210 KB (Task Superscalar
  // needs > 6.5 MB). Sized for the largest evaluated machine (512 cores).
  nexus::NexusConfig storage_cfg = nexus::NexusConfig::paper_defaults();
  storage_cfg.num_workers = 512;
  bench::note(
      nexus::storage_budget(storage_cfg).to_table().to_string() + "\n");

  engine::SweepSpec spec;
  spec.workload("independent", stream(in.independent));
  spec.workload("h264-wavefront", stream(in.wavefront));

  struct Family {
    std::string series;
    std::string paper;  ///< the paper's reported speedup
    std::uint32_t cores;
    engine::EngineParams params;  ///< family config (num_workers overridden)
  };
  std::vector<Family> families;
  {
    Family contended{"contention modeled", "54x", 64, {}};
    families.push_back(contended);
    Family free_mem{"contention-free", "143x", 256, {}};
    free_mem.params.contention = hw::ContentionModel::kNone;
    families.push_back(free_mem);
    Family noprep{"contention-free, no task prep", "221x", 256, {}};
    noprep.params.contention = hw::ContentionModel::kNone;
    noprep.params.enable_task_prep = false;
    families.push_back(noprep);
  }
  for (const auto& fam : families) {
    for (const bool is_baseline : {true, false}) {
      engine::PointSpec p;
      p.engine = "nexus++";
      p.workload = "independent";
      p.params = fam.params;
      p.params.num_workers = is_baseline ? 1 : fam.cores;
      p.series = fam.series;
      p.baseline = is_baseline;
      p.label = is_baseline
                    ? "1-core baseline"
                    : std::to_string(fam.cores) + " cores (paper " +
                          fam.paper + ")";
      spec.point(p);
    }
  }

  // Buffering-depth ablation: depth-1 is each series' baseline, so the
  // speedup column is "speedup vs depth 1" directly.
  for (const char* workload : {"independent", "h264-wavefront"}) {
    for (const std::uint32_t depth : {1u, 2u, 4u}) {
      engine::PointSpec p;
      p.engine = "nexus++";
      p.workload = workload;
      p.params.num_workers = 64;
      p.params.buffering_depth = depth;
      p.series = std::string("depth ablation: ") + workload;
      p.baseline = depth == 1;
      p.label = "depth " + std::to_string(depth);
      spec.point(p);
    }
  }

  auto results = bench::run_sweep(spec);
  bench::print(
      "Headline: independent tasks + buffering-depth ablation (paper S V)",
      results);

  bench::note("Expected shape: contention caps the 64-core run near the "
              "paper's 54x; removing contention lifts 256 cores toward "
              "~143x (master-bound); removing the 30 ns preparation "
              "delay lifts it further (paper: 221x); depth >= 2 beats "
              "depth 1 by overlapping input fetch with execution.\n");
  return results;
}

/// Ablation (paper Sections I and III): applications the original Nexus
/// cannot execute run fine on Nexus++ thanks to dummy tasks and dummy
/// entries.
///
///   1. wide tasks (up to 20 parameters)     — classic Nexus limits a task
///      to 5 parameters; Nexus++ chains dummy tasks in the Task Pool.
///   2. one-producer/many-consumers fan-out  — classic Nexus bounds the
///      number of dependants of an address; Nexus++ extends kick-off
///      lists with dummy entries.
///   3. Gaussian elimination (the paper's LINPACK-like example) — the
///      pivot row accumulates up to n-i dependants.
///
/// Also quantifies the cost of the dummy mechanisms when they are *not*
/// needed (paper claim: Nexus++ resolution is more efficient, not
/// slower).
///
/// Declarative: one sweep grid of {classic-nexus, nexus++} x the three
/// workloads, plus a dummies-on/dummies-off pair on the wavefront. The
/// unified report path shows infeasible points as FAIL with the
/// structural diagnosis instead of aborting.
std::vector<SweepResult> nexus_vs_classic(const Inputs& in) {
  engine::SweepSpec spec;

  workloads::WideConfig wide;
  wide.lanes = 4;
  wide.chain_length = 16;
  wide.width = 10;  // up to 20 parameters per task
  spec.workload("wide-20-params",
                [wide] { return workloads::make_wide_stream(wide); });

  // Fan-out: one writer, 64 readers of the same address.
  std::vector<trace::TaskRecord> fanout;
  trace::TaskRecord producer;
  producer.serial = 0;
  producer.exec_time = sim::us(50);
  producer.params = {core::out(0x42, 64)};
  fanout.push_back(producer);
  for (int i = 1; i <= 64; ++i) {
    trace::TaskRecord consumer;
    consumer.serial = static_cast<std::uint64_t>(i);
    consumer.exec_time = sim::us(1);
    consumer.params = {core::in(0x42, 64)};
    fanout.push_back(consumer);
  }
  spec.workload("64-reader-fanout", [fanout] {
    return trace::make_vector_stream(fanout);
  });

  // The paper's LINPACK-like case: run it where execution lags submission
  // (few workers), so each pivot row accumulates far more dependants than
  // a fixed kick-off list can hold.
  spec.workload("gaussian-500", gaussian(500));

  engine::EngineParams sixteen;
  sixteen.num_workers = 16;
  spec.grid({"classic-nexus", "nexus++"},
            {"wide-20-params", "64-reader-fanout"}, {sixteen});
  engine::EngineParams four;
  four.num_workers = 4;
  spec.grid({"classic-nexus", "nexus++"}, {"gaussian-500"}, {four});

  // Overhead check: on a workload neither mechanism is needed for, the
  // dummy-capable configuration must cost nothing.
  spec.workload("h264-wavefront", stream(in.wavefront));
  for (const bool dummies : {true, false}) {
    engine::PointSpec p;
    p.engine = "nexus++";
    p.workload = "h264-wavefront";
    p.params = sixteen;
    p.params.allow_dummies = dummies;
    p.series = "dummy-overhead";
    p.baseline = dummies;
    p.label = dummies ? "dummies enabled (Nexus++)" : "dummies disabled";
    spec.point(p);
  }

  auto results = bench::run_sweep(spec);
  bench::print("Classic Nexus vs Nexus++ (16 workers; Gaussian at 4)", results);

  bench::note("Expected: classic Nexus FAILs on all three stress "
              "workloads (structural limits in the diagnosis) while "
              "Nexus++ completes; the dummy-overhead pair shows identical "
              "makespans — the dummy mechanisms cost nothing unless "
              "exercised.\n");
  return results;
}

/// Motivation experiment (paper Section I, after [10]): the software
/// StarSs runtime is a scalability bottleneck that hardware task
/// management removes.
///
/// One sweep grid: {software-rts, nexus++} x the H.264 wavefront workload
/// x worker counts. Each engine's series baseline is its own single-core
/// run, so the speedup column reproduces the paper's per-system scaling
/// curves; the hardware advantage at each core count is the ratio of the
/// two. The software RTS serializes task creation, dependency resolution
/// and completion handling on the master core (~3 us per 3-parameter
/// task), so it saturates at a handful of workers; Nexus++ resolves
/// dependencies in 2 ns table accesses and keeps scaling. The Nexus paper
/// measured a 4.3x advantage at 16 cores for this workload class.
std::vector<SweepResult> rts_vs_nexus(const Inputs& in) {
  engine::SweepSpec spec;
  spec.workload("h264-wavefront", stream(in.wavefront));
  spec.grid({"software-rts", "nexus++"}, {"h264-wavefront"},
            worker_axis({1, 2, 4, 8, 16, 32}));

  auto results = bench::run_sweep(spec);

  // Hardware advantage = nexus++ speedup / software-rts speedup at the
  // same worker count (both series are in spec order over the same axis).
  auto rival_speedup = [&results](const SweepResult& r) {
    for (const auto& other : results) {
      if (other.spec.engine != r.spec.engine &&
          other.spec.params.num_workers == r.spec.params.num_workers) {
        return other.speedup;
      }
    }
    return 0.0;
  };

  bench::print(
      "Software StarSs RTS vs Nexus++ (H.264 wavefront, speedup vs own "
      "1-core run)",
      results,
      {{"master busy",
        [](const SweepResult& r) {
          const auto* master = r.report.stage("master");
          const auto mk = static_cast<double>(r.report.makespan);
          return mk > 0 && master != nullptr
                     ? util::fmt_f(100.0 * static_cast<double>(master->busy) /
                                       mk,
                                   1) +
                           "%"
                     : std::string("-");
        }},
       {"advantage", [&](const SweepResult& r) {
          if (r.spec.engine != "nexus++") return std::string("-");
          const double rival = rival_speedup(r);
          return rival > 0.0 ? util::fmt_x(r.speedup / rival)
                             : std::string("-");
        }}});

  bench::note("Expected shape: the software RTS saturates once its "
              "master core is ~100% busy; Nexus++ keeps scaling (the "
              "original Nexus measured a 4.3x advantage at 16 cores on "
              "this workload class).\n");
  return results;
}

/// Ablation: memory contention models.
///
/// The paper models contention coarsely ("no more than 32 tasks can
/// access the memory at a given time"); this ablation compares that rule
/// against the contention-free bound and against the finer-grained banked
/// extension (chunks striped over per-bank serial queues) on the
/// memory-heavy Gaussian and H.264 workloads — quantifying how much the
/// conclusion depends on the fidelity of the memory model.
///
/// Declarative: one grid of nexus++ x {independent, gaussian} x the three
/// contention models (64 workers, double buffering), with the
/// contention-free run as each series' baseline.
std::vector<SweepResult> memory_models(const Inputs& in) {
  engine::SweepSpec spec;
  spec.workload("independent", stream(in.independent));
  spec.workload("gaussian-500", gaussian(500));

  std::vector<engine::EngineParams> models;
  for (const auto model :
       {hw::ContentionModel::kNone, hw::ContentionModel::kPorts,
        hw::ContentionModel::kBanked}) {
    engine::EngineParams p;
    p.num_workers = 64;
    p.contention = model;
    models.push_back(p);
  }
  spec.grid({"nexus++"}, {"independent", "gaussian-500"}, models);

  auto results = bench::run_sweep(spec);
  bench::print(
      "Memory contention model ablation (64 workers, double buffering)",
      results,
      {{"memory wait",
        [](const SweepResult& r) {
          return util::fmt_ns(sim::to_ns(r.report.mem_stats.contention_wait));
        }},
       {"max concurrency", [](const SweepResult& r) {
          return std::to_string(r.report.mem_stats.max_concurrency);
        }}});

  bench::note("Expected: the 32-port rule and the banked model agree "
              "closely (both above the contention-free bound when memory "
              "is oversubscribed); the conclusion does not hinge on the "
              "coarse model. Workloads that fit inside 32 concurrent "
              "transfers (gaussian 500^2 at this scale) see no port "
              "contention at all, only small bank-conflict waits in the "
              "fine-grained model.\n");
  return results;
}

int run() {
  const Inputs in;
  std::vector<SweepResult> rows;
  auto keep = [&rows](const std::string& figure,
                      std::vector<SweepResult> results) {
    for (auto& r : results) {
      r.spec.series = figure + "/" + r.spec.resolved_series();
      rows.push_back(std::move(r));
    }
  };
  keep("fig6", fig6(in));
  keep("fig7", fig7(in));
  keep("fig8", fig8());
  table2();
  keep("headline", headline(in));
  keep("nexus-vs-classic", nexus_vs_classic(in));
  keep("rts-vs-nexus", rts_vs_nexus(in));
  keep("memory-models", memory_models(in));
  bench::write_rows(rows);
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() {
  try {
    return nexuspp::run();
  } catch (const std::exception& e) {
    std::cerr << "bench_paper_figures: " << e.what() << "\n";
    return 1;
  }
}
