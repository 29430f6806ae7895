// The real concurrent executor (`exec-threads`): GraphOracle-validated
// execution order across thread counts, both match modes and several
// seeds; single-thread determinism; the exact ready-queue peak at one
// thread; behaviour under core oversubscription; streams longer than the
// Task Pool, whose slots name the tasks in flight; capacity/structural
// deadlock diagnosis; master-only release; worker exceptions; and the
// registry/report contract of the engine adapter.
//
// The correctness claim differs from the simulated engines': reports are
// wall-clock measurements (never bit-identical), so what is asserted is
// the *partial order* — every task completed only after all of its
// dependencies, per core::GraphOracle::validate_completion_order — plus
// full completion counts. This file runs under the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/observer.hpp"
#include "core/oracle.hpp"
#include "engine/capture.hpp"
#include "engine/registry.hpp"
#include "exec/executor.hpp"
#include "exec/spin.hpp"
#include "obs/timeline.hpp"
#include "trace/io.hpp"
#include "trace/trace.hpp"
#include "workloads/library.hpp"
#include "workloads/overlap.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

using core::GraphOracle;
using core::MatchMode;

/// Parameter lists in submission order, plus the serial -> index mapping
/// the validator needs (all shipped generators emit serial == index, but
/// the tests must not depend on that).
struct OracleInput {
  std::vector<std::vector<core::Param>> params;
  std::unordered_map<std::uint64_t, std::uint64_t> index_of;
};

OracleInput oracle_input(const std::vector<trace::TaskRecord>& tasks) {
  OracleInput in;
  in.params.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    in.params.push_back(tasks[i].params);
    in.index_of.emplace(tasks[i].serial, i);
  }
  return in;
}

/// Runs `tasks` through a ThreadedExecutor and validates the recorded
/// completion order against the oracle. Returns the report. `stream`, when
/// given, is run instead of a vector stream and must produce `tasks`.
engine::RunReport run_validated(
    const std::vector<trace::TaskRecord>& tasks, exec::ExecConfig cfg,
    std::unique_ptr<trace::TaskStream> stream = nullptr) {
  core::CompletionRecorder recorder;
  cfg.observer = &recorder;
  if (stream == nullptr) {
    stream = std::make_unique<trace::VectorStream>(
        std::make_shared<const std::vector<trace::TaskRecord>>(tasks));
  }
  exec::ThreadedExecutor executor(cfg);
  const auto report = executor.run(std::move(stream));
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.tasks_completed, tasks.size());

  const auto in = oracle_input(tasks);
  std::vector<std::uint64_t> order;
  for (const auto serial : recorder.order()) {
    const auto it = in.index_of.find(serial);
    if (it == in.index_of.end()) {
      ADD_FAILURE() << "recorder saw unknown serial " << serial;
      return report;
    }
    order.push_back(it->second);
  }
  const auto violation = GraphOracle::validate_completion_order(
      cfg.match_mode, in.params, order);
  EXPECT_TRUE(violation.empty()) << violation;
  return report;
}

std::vector<trace::TaskRecord> small_dag(std::uint64_t seed,
                                         std::uint32_t tasks = 300) {
  workloads::RandomDagConfig cfg;
  cfg.seed = seed;
  cfg.num_tasks = tasks;
  cfg.addr_space = 24;  // dense enough for real hazard chains
  return *workloads::make_random_dag_trace(cfg);
}

// --- Differential: oracle-validated order across the whole grid ---------------

struct GridCase {
  std::uint32_t threads;
  MatchMode mode;
  std::uint64_t seed;
};

class ExecOrderGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ExecOrderGrid, CompletionOrderRespectsDependencies) {
  const auto& param = GetParam();
  exec::ExecConfig cfg;
  cfg.threads = param.threads;
  cfg.match_mode = param.mode;
  cfg.duration_scale = 0.05;  // keep kernels short; order is what matters
  const auto report = run_validated(small_dag(param.seed), cfg);
  EXPECT_EQ(report.num_workers, param.threads);
  EXPECT_GT(report.makespan, 0);
  EXPECT_GT(report.exec_tasks_per_sec, 0.0);
  EXPECT_EQ(report.turnaround_ns.count(), report.tasks_completed);
}

std::vector<GridCase> grid_cases() {
  std::vector<GridCase> cases;
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (const MatchMode mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
      for (const std::uint64_t seed : {1ull, 7ull}) {
        cases.push_back({threads, mode, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsModesSeeds, ExecOrderGrid, ::testing::ValuesIn(grid_cases()),
    [](const auto& info) {
      // Built with += — GCC 12's -Wrestrict misfires on chained
      // `"lit" + std::to_string(x) + "lit"` (gcc PR 105651).
      std::string name = "t";
      name += std::to_string(info.param.threads);
      name += info.param.mode == MatchMode::kRange ? "_range" : "_base";
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

/// Range mode with partially overlapping halo reads — the workload whose
/// hazards only interval matching sees.
TEST(ExecThreads, HaloStencilRangeMode) {
  workloads::HaloStencilConfig halo;
  halo.blocks = 24;
  halo.steps = 4;
  const auto tasks = *workloads::make_halo_stencil_trace(halo);
  exec::ExecConfig cfg;
  cfg.threads = 4;
  cfg.match_mode = MatchMode::kRange;
  cfg.duration_scale = 0.05;
  (void)run_validated(tasks, cfg);
}

// --- Determinism anchor -------------------------------------------------------

TEST(ExecThreads, SingleThreadCompletionOrderIsStable) {
  const auto tasks = small_dag(42);
  const auto run_once = [&tasks](std::uint32_t banks) {
    core::CompletionRecorder recorder;
    exec::ExecConfig cfg;
    cfg.threads = 1;
    cfg.banks = banks;
    cfg.duration_scale = 0.0;  // zero-length kernels: order is pure protocol
    cfg.observer = &recorder;
    exec::ThreadedExecutor executor(cfg);
    const auto report = executor.run(std::make_unique<trace::VectorStream>(
        std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
    EXPECT_FALSE(report.deadlocked) << report.diagnosis;
    EXPECT_EQ(report.tasks_completed, tasks.size());
    return recorder.order();
  };
  const auto first = run_once(1);
  const auto second = run_once(1);
  ASSERT_EQ(first.size(), tasks.size());
  EXPECT_EQ(first, second)
      << "threads=1 must execute inline and deterministically";
  // `banks` is a nexus-banked knob: the master owns one resolver whatever
  // it says, so the order cannot depend on it.
  EXPECT_EQ(run_once(4), first) << "exec-threads must ignore banks";

  engine::EngineParams params;
  params.threads = 1;
  params.banks = 4;
  const auto report =
      engine::EngineRegistry::builtins().make("exec-threads", params)->run(
          std::make_unique<trace::VectorStream>(
              std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.banks, 0u);
}

// --- Ready-queue peak ---------------------------------------------------------

/// `n` single-parameter tasks: on distinct addresses (independent) or all
/// on one (a chain).
std::vector<trace::TaskRecord> peak_stream(std::uint32_t n, bool chain) {
  std::vector<trace::TaskRecord> tasks(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    tasks[i].serial = i;
    tasks[i].params = {core::inout(0x1000 + (chain ? 0 : 64 * i), 64)};
  }
  return tasks;
}

TEST(ExecThreads, ReadyQueuePeakIsExactAtOneThread) {
  // threads=1 claims nothing before the stream ends (the master runs a
  // task only when it waits), so the peak is exact: every independent
  // task is published before the first claim, and a chain never has more
  // than its head ready. Untraced, the master reads the claimed head only
  // when the peak could rise; traced, after every publication.
  const auto peak = [](const std::vector<trace::TaskRecord>& tasks,
                       bool traced) {
    exec::ExecConfig cfg;
    cfg.threads = 1;
    cfg.duration_scale = 0.0;
    obs::TimelineRecorder rec("exec", "wall", 1u << 14);
    if (traced) cfg.timeline_recorder = &rec;
    return run_validated(tasks, cfg).ready_queue_peak;
  };
  const auto independent = peak_stream(200, false);
  const auto chain = peak_stream(200, true);
  EXPECT_EQ(peak(independent, false), 200u);
  EXPECT_EQ(peak(chain, false), 1u);
  EXPECT_EQ(peak(independent, true), 200u);
  EXPECT_EQ(peak(chain, true), 1u);
}

// --- Oversubscription ---------------------------------------------------------

TEST(ExecThreads, OversubscribedWorkersStayOracleValid) {
  // More workers than cores: heavy preemption, maximal interleaving — the
  // ordering guarantee must not depend on the scheduler.
  const auto cores = std::max(1u, std::thread::hardware_concurrency());
  exec::ExecConfig cfg;
  cfg.threads = std::max(16u, 2 * cores);
  cfg.duration_scale = 0.02;
  const auto report = run_validated(small_dag(4242, 400), cfg);
  EXPECT_EQ(report.exec_worker_utilization.size(), cfg.threads);
}

// --- Workload library DAGs and captured traces --------------------------------

TEST(ExecThreads, CompletesWorkloadLibraryDags) {
  const auto& library = workloads::WorkloadLibrary::builtins();
  for (const char* spec :
       {"tiled-cholesky:tiles=4,tile-elems=16",
        "tiled-lu:tiles=4,tile-elems=16",
        "spatial:cells-x=6,cells-y=6,steps=2"}) {
    SCOPED_TRACE(spec);
    const auto tasks = *library.make_trace(spec);
    for (const MatchMode mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        cfg.match_mode = mode;
        cfg.duration_scale = 0.01;  // FLOP-derived durations are long
        (void)run_validated(tasks, cfg);
      }
    }
  }
}

TEST(ExecThreads, CompletesPatternWorkloads) {
  // The task-bench timestep grids: structurally diverse dependence shapes
  // (double-buffered addresses, so base-addr and range matching must both
  // hold) across thread counts, GraphOracle-validated like everything
  // else in this file.
  const auto& library = workloads::WorkloadLibrary::builtins();
  for (const char* spec :
       {"pattern:kind=stencil1d,width=8,steps=6,task-ns=500",
        "pattern:kind=fft,width=8,steps=6,task-ns=500",
        "pattern:kind=all-to-all,width=6,steps=4,task-ns=500",
        "pattern:kind=random-nearest,width=8,steps=5,radius=3,task-ns=500"}) {
    SCOPED_TRACE(spec);
    const auto tasks = *library.make_trace(spec);
    for (const MatchMode mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
      for (const std::uint32_t threads : {1u, 4u}) {
        exec::ExecConfig cfg;
        cfg.threads = threads;
        cfg.match_mode = mode;
        (void)run_validated(tasks, cfg);
      }
    }
  }
}

TEST(ExecThreads, RunsCapturedTracesFromTheReplayPipeline) {
  // Capture a run on the simulated flagship, serialize, reload, and
  // execute the captured stream for real — the full pipeline the ISSUE's
  // "captured traces" clause names.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  engine::EngineParams params;
  params.num_workers = 8;
  const auto eng = registry.make("nexus++", params);
  const auto captured =
      engine::run_captured(*eng, library.make_stream("tiled-lu:tiles=4"),
                           &params, "tiled-lu:tiles=4");
  ASSERT_FALSE(captured.report.deadlocked) << captured.report.diagnosis;

  std::stringstream buffer;
  trace::write_binary(buffer, captured.trace);
  const auto reloaded = trace::read_binary_trace(buffer);
  ASSERT_EQ(reloaded.tasks.size(), captured.trace.tasks.size());

  exec::ExecConfig cfg;
  cfg.threads = 4;
  cfg.duration_scale = 0.01;
  (void)run_validated(reloaded.tasks, cfg);
}

// --- Streams longer than the Task Pool ---------------------------------------

/// Runs `tasks` at threads 1 and 4 in both match modes, oracle-validated,
/// at the default capacities: every task is named by one of the pool's
/// slots, so slots recycle many times and the pool never holds more than
/// its capacity. `make_stream`, when given, builds the stream to run
/// instead of a vector stream over `tasks`.
void expect_runs_past_the_pool(
    const std::vector<trace::TaskRecord>& tasks,
    exec::KernelKind kernel = exec::KernelKind::kSpin,
    const std::function<std::unique_ptr<trace::TaskStream>()>& make_stream =
        {}) {
  const std::uint32_t pool = exec::ExecConfig{}.task_pool_capacity;
  ASSERT_GT(tasks.size(), pool) << "the stream must outlast the pool";
  for (const MatchMode mode : {MatchMode::kBaseAddr, MatchMode::kRange}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(threads) + " thread(s), " +
                   core::to_string(mode));
      exec::ExecConfig cfg;
      cfg.threads = threads;
      cfg.match_mode = mode;
      cfg.duration_scale = 0.01;
      cfg.kernel.kind = kernel;
      const auto report = run_validated(
          tasks, cfg, make_stream ? make_stream() : nullptr);
      EXPECT_LE(report.tp_max_used, pool);
    }
  }
}

TEST(ExecCapacity, WideTasksSpillIntoDummyDescriptors) {
  // 65 parameters a task: each takes a chain of dummy descriptors, so the
  // pool, not the slots, fills first.
  const auto tasks = *workloads::WorkloadLibrary::builtins().make_trace(
      "pattern:kind=all-to-all,width=64,steps=32");
  expect_runs_past_the_pool(tasks);
}

TEST(ExecCapacity, WideFftPattern) {
  const auto tasks = *workloads::WorkloadLibrary::builtins().make_trace(
      "pattern:kind=fft,width=256,steps=16");
  expect_runs_past_the_pool(tasks);
}

TEST(ExecCapacity, LazyGaussianStream) {
  // Pivot rows fan out to every task of their step; the stream is built
  // task by task as the master pulls it.
  const auto& library = workloads::WorkloadLibrary::builtins();
  const char* spec = "gaussian:n=120";
  const auto tasks = *library.make_trace(spec);
  expect_runs_past_the_pool(tasks, exec::KernelKind::kSpin,
                            [&library, spec] {
                              return library.make_stream(spec);
                            });
}

TEST(ExecCapacity, ParameterlessTasksTakeSlotsToo) {
  // A task without parameters needs no descriptor, yet it is in flight
  // until released: it waits for a slot like any other.
  std::vector<trace::TaskRecord> tasks(3000);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].serial = i;
    tasks[i].exec_time = sim::ns(200);
    if (i % 5 == 0) tasks[i].params = {core::inout(0x1000 + 64 * (i % 7))};
  }
  expect_runs_past_the_pool(tasks);

  // The tasks in flight never outnumber the slots.
  engine::EngineParams params;
  params.threads = 4;
  params.timeline.enabled = true;
  params.timeline.events_per_track =
      static_cast<std::uint32_t>(8 * tasks.size());
  const auto report =
      engine::EngineRegistry::builtins().make("exec-threads", params)->run(
          std::make_unique<trace::VectorStream>(
              std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  ASSERT_FALSE(report.deadlocked) << report.diagnosis;
  ASSERT_NE(report.timeline.data, nullptr);
  EXPECT_EQ(report.timeline.data->total_dropped(), 0u);
  std::uint64_t peak_in_flight = 0;
  for (const auto& track : report.timeline.data->tracks) {
    for (const auto& event : track.events) {
      if (event.kind == obs::EventKind::kInFlight) {
        peak_in_flight = std::max(peak_in_flight, event.arg);
      }
    }
  }
  EXPECT_GT(peak_in_flight, 0u);
  EXPECT_LE(peak_in_flight, exec::ExecConfig{}.task_pool_capacity);
}

TEST(ExecCapacity, ImbalancedKernelsPastThePool) {
  const auto tasks = *workloads::WorkloadLibrary::builtins().make_trace(
      "pattern:kind=stencil1d,width=16,steps=96,task-ns=2000");
  expect_runs_past_the_pool(tasks, exec::KernelKind::kLoadImbalance);
}

/// Passes another stream's tasks through, but claims `claimed` of them.
class MiscountedStream final : public trace::TaskStream {
 public:
  MiscountedStream(std::unique_ptr<trace::TaskStream> inner,
                   std::uint64_t claimed)
      : inner_(std::move(inner)), claimed_(claimed) {}

  std::optional<trace::TaskRecord> next() override { return inner_->next(); }
  [[nodiscard]] std::uint64_t total_tasks() const override {
    return claimed_;
  }

 private:
  std::unique_ptr<trace::TaskStream> inner_;
  std::uint64_t claimed_;
};

TEST(ExecCapacity, MiscountedStreamRunsEveryTaskAndIsDiagnosed) {
  // total_tasks() is only a hint: a stream that under- or over-states its
  // length still runs to its end, and the report names both counts.
  const auto tasks = small_dag(5, 3000);
  for (const std::uint64_t claimed : {tasks.size() / 2, tasks.size() * 2}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::to_string(claimed) + " claimed, " +
                   std::to_string(threads) + " thread(s)");
      exec::ExecConfig cfg;
      cfg.threads = threads;
      cfg.duration_scale = 0.01;
      const auto report = run_validated(
          tasks, cfg,
          std::make_unique<MiscountedStream>(
              std::make_unique<trace::VectorStream>(
                  std::make_shared<const std::vector<trace::TaskRecord>>(
                      tasks)),
              claimed));
      EXPECT_EQ(report.tasks_expected, claimed);
      EXPECT_EQ(report.tasks_submitted, tasks.size());
      EXPECT_NE(report.diagnosis.find(std::to_string(claimed)),
                std::string::npos)
          << report.diagnosis;
      EXPECT_NE(report.diagnosis.find(std::to_string(tasks.size())),
                std::string::npos)
          << report.diagnosis;
      EXPECT_EQ(report.diagnosis.find("deadlock"), std::string::npos)
          << report.diagnosis;
    }
  }
}

// --- Deadlock diagnosis (terminates, never hangs) -----------------------------

TEST(ExecThreads, CapacityDeadlockIsDiagnosed) {
  // A single task needing more table entries than the table can ever
  // hold: the executor must report a capacity deadlock, not wait forever.
  std::vector<trace::TaskRecord> tasks(1);
  tasks[0].serial = 0;
  tasks[0].params = {core::out(0x1000), core::out(0x2000),
                     core::out(0x3000), core::out(0x4000)};
  for (const std::uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.dep_table_capacity = 2;
    exec::ThreadedExecutor executor(cfg);
    const auto report = executor.run(std::make_unique<trace::VectorStream>(
        std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
    EXPECT_TRUE(report.deadlocked);
    EXPECT_NE(report.diagnosis.find("capacity deadlock"), std::string::npos)
        << report.diagnosis;
    EXPECT_EQ(report.tasks_completed, 0u);
  }
}

TEST(ExecThreads, StructuralKickOffOverflowIsDiagnosed) {
  // Classic-Nexus limits: dummies disabled, kick-off capacity 2. A writer
  // holds an address while four more writers queue behind it — the third
  // can never be recorded, which is permanent, not a capacity wait.
  std::vector<trace::TaskRecord> tasks(6);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].serial = i;
    tasks[i].params = {core::out(0x1000)};
  }
  exec::ExecConfig cfg;
  cfg.threads = 1;  // inline: the first writer stays unexecuted, so the
                    // queue genuinely fills — and the run is deterministic
  cfg.allow_dummies = false;
  cfg.kick_off_capacity = 2;
  exec::ThreadedExecutor executor(cfg);
  const auto report = executor.run(std::make_unique<trace::VectorStream>(
      std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.diagnosis.find("structural"), std::string::npos)
      << report.diagnosis;
}

// --- Division of labour: workers run, the master releases --------------------

TEST(ExecThreads, OnlyTheMasterReleasesTasks) {
  // Nexus++ workers hand finished task ids back to the Task Maestro, whose
  // Handle Finished block alone updates the tables: the timeline carries
  // every release span on the master track.
  const auto tasks = small_dag(11, 2000);
  engine::EngineParams params;
  params.threads = 4;
  const auto& registry = engine::EngineRegistry::builtins();
  const auto run = [&](const engine::EngineParams& p) {
    const auto report = registry.make("exec-threads", p)->run(
        std::make_unique<trace::VectorStream>(
            std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
    EXPECT_FALSE(report.deadlocked) << report.diagnosis;
    EXPECT_EQ(report.tasks_completed, tasks.size());
    return report;
  };

  engine::EngineParams traced_params = params;
  traced_params.timeline.enabled = true;
  traced_params.timeline.events_per_track =
      static_cast<std::uint32_t>(16 * tasks.size());
  const auto traced = run(traced_params);
  ASSERT_NE(traced.timeline.data, nullptr);
  EXPECT_EQ(traced.timeline.data->total_dropped(), 0u);
  std::uint64_t master_releases = 0;
  std::uint64_t other_releases = 0;
  for (const auto& track : traced.timeline.data->tracks) {
    for (const auto& event : track.events) {
      if (event.kind == obs::EventKind::kRelease) {
        ++(track.name == "master" ? master_releases : other_releases);
      }
    }
  }
  EXPECT_EQ(master_releases, tasks.size());
  EXPECT_EQ(other_releases, 0u);
}

// --- Worker failures ------------------------------------------------------------

/// Throws from on_completed for one task — on a worker thread whenever the
/// pool runs it.
class ThrowingObserver final : public core::ExecutionObserver {
 public:
  explicit ThrowingObserver(std::uint64_t serial) : serial_(serial) {}

  void on_completed(std::uint64_t serial, std::uint32_t worker) override {
    (void)worker;
    if (serial == serial_) {
      throw std::runtime_error("observer failed on task " +
                               std::to_string(serial));
    }
  }

 private:
  std::uint64_t serial_;
};

TEST(ExecThreads, WorkerExceptionIsRethrown) {
  // A throwing callback (or kernel) on a worker must not escape the thread
  // and terminate the process: run() stops the pool and rethrows it.
  const auto tasks = small_dag(3, 400);
  for (const std::uint32_t threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    ThrowingObserver observer(tasks[tasks.size() / 2].serial);
    exec::ExecConfig cfg;
    cfg.threads = threads;
    cfg.duration_scale = 0.01;
    cfg.observer = &observer;
    exec::ThreadedExecutor executor(cfg);
    try {
      (void)executor.run(std::make_unique<trace::VectorStream>(
          std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
      ADD_FAILURE() << "run() returned although a worker threw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("observer failed"),
                std::string::npos)
          << e.what();
    }
  }
}

/// Throws from on_submitted, on the master, for one task, and counts the
/// kernels the workers start and complete.
class SubmitThrowingObserver final : public core::ExecutionObserver {
 public:
  explicit SubmitThrowingObserver(std::uint64_t serial) : serial_(serial) {}

  void on_submitted(std::uint64_t serial) override {
    if (serial == serial_) throw std::runtime_error("master-side failure");
  }
  void on_started(std::uint64_t, std::uint32_t) override { ++started; }
  void on_completed(std::uint64_t, std::uint32_t) override { ++completed; }

  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> completed{0};

 private:
  std::uint64_t serial_;
};

TEST(ExecThreads, MasterExceptionJoinsTheWorkers) {
  // An exception on the master leaves run() only once the workers are
  // joined: no callback fires after it, although ready tasks were queued.
  std::vector<trace::TaskRecord> tasks(400);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].serial = i;
    tasks[i].exec_time = sim::us(200);
  }
  SubmitThrowingObserver observer(300);
  exec::ExecConfig cfg;
  cfg.threads = 2;
  cfg.observer = &observer;
  exec::ThreadedExecutor executor(cfg);
  EXPECT_THROW((void)executor.run(std::make_unique<trace::VectorStream>(
                   std::make_shared<const std::vector<trace::TaskRecord>>(
                       tasks))),
               std::runtime_error);
  const std::uint64_t started = observer.started.load();
  EXPECT_EQ(observer.completed.load(), started);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(observer.started.load(), started);
}

// --- Engine adapter / registry contract ---------------------------------------

TEST(ExecThreads, RegisteredEngineFillsTheRealExecutionReport) {
  const auto& registry = engine::EngineRegistry::builtins();
  ASSERT_TRUE(registry.contains("exec-threads"));

  engine::EngineParams params;
  params.num_workers = 2;
  params.threads = 4;  // explicit threads knob wins over num_workers
  const auto eng = registry.make("exec-threads", params);
  EXPECT_EQ(eng->name(), "exec-threads");
  EXPECT_FALSE(eng->deterministic_report());
  EXPECT_TRUE(registry.make("nexus++", params)->deterministic_report());

  const auto tasks = small_dag(1, 200);
  const auto report = eng->run(std::make_unique<trace::VectorStream>(
      std::make_shared<const std::vector<trace::TaskRecord>>(tasks)));
  ASSERT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.engine, "exec-threads");
  EXPECT_EQ(report.num_workers, 4u);
  EXPECT_EQ(report.tasks_completed, tasks.size());
  EXPECT_GT(report.makespan, 0);
  EXPECT_GT(report.exec_tasks_per_sec, 0.0);
  EXPECT_EQ(report.exec_worker_utilization.size(), 4u);
  EXPECT_GT(report.dt_lookups, 0u);
  EXPECT_EQ(report.turnaround_ns.count(), tasks.size());
  // The real-execution columns ride the shared CSV schema.
  const auto header = engine::RunReport::csv_header();
  const auto row = report.csv_row();
  ASSERT_EQ(header.size(), row.size());
  const auto col = std::find(header.begin(), header.end(),
                             "exec_tasks_per_sec");
  ASSERT_NE(col, header.end());
  EXPECT_NE(row[static_cast<std::size_t>(col - header.begin())], "0.000");

  // The threads knob shows up in sweep labels.
  EXPECT_NE(params.label().find("threads=4"), std::string::npos);
}

TEST(ExecThreads, SpinKernelHonorsRequestedDuration) {
  const auto t0 = std::chrono::steady_clock::now();
  exec::spin_for_ns(2'000'000);  // 2 ms
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 2'000'000);
  EXPECT_GT(exec::spin_iters_per_us(), 0u);
}

}  // namespace
}  // namespace nexuspp
