// Real-execution throughput: the exec-threads backend actually running
// task graphs on worker threads, next to the simulated engines' predicted
// makespans on the same streams.
//
// Grid per workload:
//   exec-threads x threads {1, 2, 4, 8} x shards (banks) {1, 4} — one
//   speedup series with threads=1/banks=1 as baseline, so the speedup
//   column reads as *measured* parallel scaling, and the tasks/sec,
//   per-worker-utilization and lock-contention columns show where it goes.
//   nexus++ / software-rts (8 workers) — their own series; their makespan
//   column is simulated (predicted) time for the same stream, the number
//   the real wall-clock makespan of exec-threads sits next to.
//
// Four workload regimes:
//   wavefront  — ~11.8 us kernels on a wide H.264-style frontier: the
//                scaling showcase (the ready queue stays deep, so worker
//                kernels overlap).
//   fine-dag   — 250 ns kernels on a chain-heavy random DAG:
//                resolver-bound, the regime where the master's per-task
//                cost (registration plus release) and the shard count
//                decide throughput.
//   fine-stream — ~100 ns kernels, wide fan-in (up to 6 params/task):
//                kernels are noise, resolution *is* the workload. A
//                second grid runs sync {mutex, lockfree} x threads {1..8}
//                ({1..32} in full mode) on it, one series per sync mode:
//                the master's per-task cost under each backend, and how
//                much CPU time workers beyond the host's cores take from
//                it.
//   tiled-cholesky — the application-shaped factorization DAG.
//
// Plotting the thread curve from the CSV artifact
// (NEXUSPP_BENCH_CSV=curve.csv ./bench_executor_throughput):
// filter rows whose series starts with "fine-stream/sync-", then plot
// exec_tasks_per_sec against the thread count in the label, one line per
// series. The master is the resolver's only caller, so the contention
// columns stay flat: exec_lock_contentions is 0 and the combiner's
// requests/batches ratio is 1.
//
// Measured scaling is bounded by the *host's* cores — that is the point of
// a real backend. On a starved host the wavefront rows still overlap
// (deadline-based kernels progress while descheduled, as long as the
// frontier is deeper than the scheduler quantum), while chain-heavy DAGs
// collapse toward serial; the simulated rows show what a machine with as
// many free cores as `workers` would do with the same streams.
//
// Unlike the simulation benches this one runs its points *serially*
// (sweep threads = 1): concurrent points would time-share cores with the
// executor under measurement and corrupt the wall-clock numbers.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "engine/sweep.hpp"
#include "workloads/factorization.hpp"
#include "workloads/library.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

int run() {
  const auto wavefront_tasks =
      workloads::WorkloadLibrary::builtins().make_trace(
          bench::full_mode() ? "h264:rows=120,cols=68" : "h264:rows=64,cols=48");

  workloads::RandomDagConfig fine;
  fine.num_tasks = bench::full_mode() ? 20'000 : 4'000;
  fine.addr_space = 96;
  fine.timing.mean_exec_ns = 250.0;
  fine.timing.mean_mem_ns = 100.0;
  const auto fine_tasks = make_random_dag_trace(fine);

  // Resolution-bound: kernels of ~100 ns under a deep dependence web mean
  // nearly all wall clock is spent inside the resolver shards — the
  // regime where the shard synchronization backend is the bottleneck.
  workloads::RandomDagConfig fine_stream;
  fine_stream.num_tasks = bench::full_mode() ? 30'000 : 6'000;
  fine_stream.addr_space = 48;  // dense RAW/WAR/WAW web
  fine_stream.max_params = 6;
  fine_stream.write_prob = 0.5;
  fine_stream.timing.mean_exec_ns = 100.0;
  fine_stream.timing.mean_mem_ns = 50.0;
  const auto fine_stream_tasks = make_random_dag_trace(fine_stream);

  workloads::FactorizationConfig chol;
  chol.tiles = bench::full_mode() ? 12 : 8;
  chol.tile_elems = 32;
  const auto chol_tasks = workloads::make_cholesky_trace(chol);

  engine::SweepSpec spec;
  spec.workload("wavefront", [&wavefront_tasks] {
    return std::make_unique<trace::VectorStream>(wavefront_tasks);
  });
  spec.workload("fine-dag", [&fine_tasks] {
    return std::make_unique<trace::VectorStream>(fine_tasks);
  });
  spec.workload("fine-stream", [&fine_stream_tasks] {
    return std::make_unique<trace::VectorStream>(fine_stream_tasks);
  });
  spec.workload("tiled-cholesky", [&chol_tasks] {
    return std::make_unique<trace::VectorStream>(chol_tasks);
  });

  for (const char* workload : {"wavefront", "fine-dag", "tiled-cholesky"}) {
    bool first = true;
    for (const std::uint32_t banks : {1u, 4u}) {
      for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
        engine::PointSpec p;
        p.engine = "exec-threads";
        p.workload = workload;
        p.params.threads = threads;
        p.params.banks = banks;
        p.series = std::string(workload) + "/real";
        p.baseline = first;
        first = false;
        p.label = std::to_string(threads) + " thr / " +
                  std::to_string(banks) + (banks == 1 ? " shard" : " shards");
        spec.point(p);
      }
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

  // The contention curve: both shard-sync backends head to head on the
  // resolution-bound stream, one series per backend so the CSV plots as
  // two lines over thread count. 4 shards keeps per-shard contention high
  // enough to separate the backends without serializing on one shard.
  {
    std::vector<std::uint32_t> curve_threads = {1u, 2u, 4u, 8u};
    if (bench::full_mode()) {
      curve_threads.push_back(16u);
      curve_threads.push_back(32u);
    }
    // NEXUSPP_BENCH_TIMELINE=out.json additionally records a task timeline
    // on the 4-thread mutex point of this curve (the CI artifact).
    const char* timeline_path = std::getenv("NEXUSPP_BENCH_TIMELINE");
    for (const exec::SyncMode sync :
         {exec::SyncMode::kMutex, exec::SyncMode::kLockFree}) {
      bool first = true;
      for (const std::uint32_t threads : curve_threads) {
        engine::PointSpec p;
        p.engine = "exec-threads";
        p.workload = "fine-stream";
        p.params.threads = threads;
        p.params.banks = 4;
        p.params.sync = sync;
        p.params.timeline.enabled = timeline_path != nullptr &&
                                    sync == exec::SyncMode::kMutex &&
                                    threads == 4;
        p.series = std::string("fine-stream/sync-") + exec::to_string(sync);
        p.baseline = first;
        first = false;
        p.label = std::string(exec::to_string(sync)) + " x " +
                  std::to_string(threads) +
                  (threads == 1 ? " thread" : " threads");
        spec.point(p);
      }
    }
  }

  // Serial execution: one point at a time owns the machine.
  engine::SweepDriver driver(engine::EngineRegistry::builtins(),
                             engine::SweepOptions{.threads = 1});
  const auto results = driver.run(spec);

  if (const char* timeline_path = std::getenv("NEXUSPP_BENCH_TIMELINE")) {
    const auto written =
        engine::SweepDriver::export_timelines(results, timeline_path);
    for (const auto& path : written) {
      std::fprintf(stderr, "[timeline] wrote %s\n", path.c_str());
    }
  }

  bench::emit(
      "Real vs simulated throughput (exec-threads wall clock; simulated "
      "rows are predicted time)",
      results,
      {{"tasks/sec",
        [](const engine::SweepResult& r) {
          return r.report.exec_tasks_per_sec > 0.0
                     ? util::fmt_f(r.report.exec_tasks_per_sec, 0)
                     : std::string("-");
        }},
       {"lock cont.",
        [](const engine::SweepResult& r) {
          if (r.report.exec_lock_acquisitions == 0) return std::string("-");
          return util::fmt_count(r.report.exec_lock_contentions) + "/" +
                 util::fmt_count(r.report.exec_lock_acquisitions);
        }},
       {"combine avg/max",
        [](const engine::SweepResult& r) {
          if (r.report.exec_combined_batches == 0) return std::string("-");
          const double avg =
              static_cast<double>(r.report.exec_combined_requests) /
              static_cast<double>(r.report.exec_combined_batches);
          return util::fmt_f(avg, 1) + "/" +
                 std::to_string(r.report.exec_max_combined_batch);
        }},
       {"CAS retry",
        [](const engine::SweepResult& r) {
          if (r.report.exec_sync != "lockfree") return std::string("-");
          return util::fmt_count(r.report.exec_cas_retries);
        }},
       {"worker util min-max",
        [](const engine::SweepResult& r) {
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
      "fine-dag and the fine-stream/sync-* series are resolver-bound — "
      "the master alone registers and releases tasks, so their tasks/sec "
      "follows its per-task cost, holds roughly flat while workers fit "
      "the host's cores and drops once they outnumber them, and lock "
      "contention stays 0; the simulated rows are "
      "predicted time for a machine with `workers` free cores, the "
      "yardstick the measured rows sit next to.");
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() { return nexuspp::run(); }
