#pragma once
// ThreadedExecutor: a real concurrent StarSs executor — the first backend
// that *runs* task graphs on worker threads instead of simulating them.
//
// The calling thread is the Task Maestro (exec/maestro.hpp, which holds
// the master/worker design): it pulls TaskRecords from any
// trace::TaskStream in submission order, registers each in a Task Pool
// slot, and `threads` workers run a kernel honoring the record's
// exec_time. A stall that can never resolve (nothing left in flight, or a
// structural limit) ends the run with a deadlock diagnosis instead of
// hanging. `TaskStream::total_tasks()` only fills
// RunReport::tasks_expected: a stream that produces a different number
// of tasks still runs to its end, and the diagnosis names both counts.
//
// The master runs ready tasks too, whenever it would otherwise wait (a
// registration stalled with nothing posted, or the end-of-stream drain)
// and more tasks are ready than there are workers: the Maestro's waiting
// rule. So the threads that run tasks are the executors: workers
// 0..threads-1, then the master at index `threads`. threads == 1 spawns
// no worker: the master, executor 0, runs every task itself. No
// concurrency, hence a *stable, reproducible completion order* — the
// determinism anchor the multi-threaded runs are differentially tested
// against (same GraphOracle-validated partial order, arbitrary
// interleaving).
//
// run() fills an engine::RunReport after the timed loop: the wall clock
// in the makespan slot, the master's one "submit" stage (registration
// busy time; stall time releasing posted completions, waiting for more
// and running tasks itself), tasks/sec, and per executor (num_workers =
// threads + 1 at threads >= 2, so the master's core counts in run
// efficiency and utilization) kernel utilization and turnaround
// (registration to kernel completion), next to the table and hazard
// telemetry shared with the simulated engines. Ordering evidence flows
// through core::ExecutionObserver, whose worker index is the executor's
// (on_completed fires before accesses are released, so recorded
// completion order is always oracle-checkable). An exception thrown by a
// kernel or an observer callback stops the run and is rethrown from run()
// once the pool is joined, whether a worker or the master ran the task;
// one thrown on the master by the stream or on_submitted leaves run()
// only after that join too.

#include <cstdint>
#include <memory>

#include "core/dependence_table.hpp"
#include "core/observer.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"
#include "engine/run_report.hpp"
#include "exec/kernels.hpp"
#include "exec/master_resolver.hpp"
#include "obs/timeline.hpp"
#include "trace/trace.hpp"

namespace nexuspp::exec {

struct ExecConfig {
  /// Worker threads. At 1 there is no pool: the master runs every task,
  /// in a deterministic order. At >= 2 the master runs ready tasks too
  /// while it waits, so threads + 1 threads run tasks.
  std::uint32_t threads = 4;
  /// Ignored: the master owns one resolver, with no banks. Kept only
  /// because perfbench/src/replay.cpp still assigns it.
  std::uint32_t banks = 1;
  core::MatchMode match_mode = core::MatchMode::kBaseAddr;
  /// Machine totals — same meaning and defaults as the simulated engines'
  /// capacity knobs: the paper's Table IV sizes. `task_pool_capacity` also
  /// bounds the tasks in flight: one slot per descriptor.
  std::uint32_t task_pool_capacity = core::TaskPoolConfig{}.capacity;
  std::uint32_t dep_table_capacity = core::DependenceTableConfig{}.capacity;
  std::uint32_t kick_off_capacity =
      core::DependenceTableConfig{}.kick_off_capacity;
  bool allow_dummies = true;
  /// Kernel body workers run per task (see exec/kernels.hpp). kSpin is
  /// the status-quo pure delay; the other kinds convert the record's
  /// exec_time into calibrated work units with a real resource
  /// signature. Simulated engines never see this knob, so sim-vs-real
  /// comparisons stay on identical trace durations.
  KernelConfig kernel{};
  /// Optional execution-event sink (not owned; must outlive run()).
  core::ExecutionObserver* observer = nullptr;
  /// Optional per-run timeline recorder (not owned; must outlive run()).
  /// Null — the default — compiles every hook site down to a pointer test,
  /// keeping the instrumented build within noise of the no-hooks one.
  obs::TimelineRecorder* timeline_recorder = nullptr;

  void validate() const;

  /// The resolver slice of this config — the one place the field pairing
  /// is spelled out.
  [[nodiscard]] MasterResolverConfig resolver_config() const;
};

/// Single-use, like the simulated systems: construct, run once.
class ThreadedExecutor {
 public:
  explicit ThreadedExecutor(ExecConfig config);

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;

  /// Executes the whole stream; returns when every task has completed or a
  /// deadlock was diagnosed. Throws std::logic_error on reuse, and
  /// rethrows the first exception a worker raised.
  [[nodiscard]] engine::RunReport run(
      std::unique_ptr<trace::TaskStream> stream);

  [[nodiscard]] const ExecConfig& config() const noexcept { return config_; }

 private:
  struct Impl;
  ExecConfig config_;
  bool ran_ = false;
};

}  // namespace nexuspp::exec
