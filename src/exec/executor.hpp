#pragma once
// ThreadedExecutor: a real concurrent StarSs executor — the first backend
// that *runs* task graphs on worker threads instead of simulating them.
//
// The master (the calling thread) is the Task Maestro of the paper's
// Fig. 2: it pulls TaskRecords from any trace::TaskStream in submission
// order, registers them with its exec::MasterResolver (one Task Pool and
// one Dependence Table under core::Resolver semantics), and is the only
// thread that ever touches them. Ready tasks go out over a TaskHandoff
// (exec/handoff.hpp); `threads` workers claim them, execute a kernel
// honoring the record's exec_time, and post the finished ids back. The
// master drains those completions — releasing each task's accesses and
// making its dependants ready, as the Maestro's Handle Finished block does
// — before every submission, whenever registration stalls on a slot or on
// table or pool space, and after the stream ends. A stall that can never
// resolve (nothing left in flight, or a structural limit) terminates the
// run with a deadlock diagnosis instead of hanging.
//
// As the Maestro names a task by its Task Pool index, the master names
// every task, parameter-less ones too, by a slot in [0,
// task_pool_capacity), recycled FIFO (core::IndexFifo) once the task is
// released. A task waits for a free slot the way registration waits for
// pool space, so at most task_pool_capacity tasks are in flight, and
// nothing the executor holds grows with the stream: the resolver's id
// map, the handoff's rings and the per-slot records are all sized by the
// pool. `TaskStream::total_tasks()` only fills ExecReport::tasks_expected;
// a stream that produces a different number of tasks still runs to its
// end, and the report's diagnosis names both counts.
//
// threads == 1 spawns no worker: the master runs the oldest ready task
// itself wherever it would otherwise wait. No concurrency, hence a
// *stable, reproducible completion order* — the determinism anchor the
// multi-threaded runs are differentially tested against (same
// GraphOracle-validated partial order, arbitrary interleaving).
//
// The report carries real wall-clock results (tasks/sec, per-worker
// utilization, turnaround) next to the structural/hazard
// telemetry shared with the simulated engines; ordering evidence flows
// through core::ExecutionObserver (on_completed fires before accesses are
// released, so recorded completion order is always oracle-checkable). An
// exception thrown by a kernel or an observer callback on a worker stops
// the run and is rethrown from run() once the pool is joined.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/observer.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"
#include "exec/kernels.hpp"
#include "exec/master_resolver.hpp"
#include "obs/timeline.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace nexuspp::exec {

struct ExecConfig {
  std::uint32_t threads = 4;  ///< worker pool size (1 = deterministic inline)
  /// Ignored: the master owns one resolver, with no banks. Kept only
  /// because perfbench/src/replay.cpp still assigns it.
  std::uint32_t banks = 1;
  core::MatchMode match_mode = core::MatchMode::kBaseAddr;
  /// Machine totals — same meaning and defaults as the simulated engines'
  /// capacity knobs: the paper's Table IV sizes. `task_pool_capacity` also
  /// bounds the tasks in flight (see above).
  std::uint32_t task_pool_capacity = core::TaskPoolConfig{}.capacity;
  std::uint32_t dep_table_capacity = core::DependenceTableConfig{}.capacity;
  std::uint32_t kick_off_capacity =
      core::DependenceTableConfig{}.kick_off_capacity;
  bool allow_dummies = true;
  /// Multiplier on trace exec times (1.0 honors them; tests shrink it).
  double duration_scale = 1.0;
  /// Kernel body workers run per task (see exec/kernels.hpp). kSpin is
  /// the status-quo pure delay; the other kinds convert the (scaled)
  /// trace duration into calibrated work units with a real resource
  /// signature. Simulated engines never see this knob, so sim-vs-real
  /// comparisons stay on identical trace durations.
  KernelConfig kernel{};
  /// Optional execution-event sink (not owned; must outlive run()).
  core::ExecutionObserver* observer = nullptr;
  /// Tracing knobs (carried from EngineParams for the adapter's benefit).
  obs::TimelineOptions timeline{};
  /// Optional per-run timeline recorder (not owned; must outlive run()).
  /// Null — the default — compiles every hook site down to a pointer test,
  /// keeping the instrumented build within noise of the no-hooks one.
  obs::TimelineRecorder* timeline_recorder = nullptr;

  void validate() const;

  /// The resolver slice of this config — the one place the field pairing
  /// is spelled out.
  [[nodiscard]] MasterResolverConfig resolver_config() const;
};

struct ExecReport {
  std::uint64_t tasks_expected = 0;  ///< the stream's total_tasks()
  std::uint64_t tasks_submitted = 0;
  std::uint64_t tasks_completed = 0;
  bool deadlocked = false;
  /// Why the run stopped early when deadlocked; otherwise empty, unless
  /// the stream produced a different number of tasks than tasks_expected.
  std::string diagnosis;

  // --- Real wall-clock results ----------------------------------------------
  double wall_ns = 0.0;        ///< run start to last completion
  double tasks_per_sec = 0.0;  ///< completed / wall seconds
  double total_exec_ns = 0.0;  ///< sum of kernel spin budgets (scaled)
  /// Per worker: time inside task kernels. Releases run on the master
  /// and are not part of it.
  std::vector<double> worker_busy_ns;
  std::vector<double> worker_utilization;  ///< per worker: kernel / wall
  double avg_utilization = 0.0;
  /// Per-task turnaround (registration to kernel completion), wall ns.
  util::RunningStats turnaround_ns;
  double submit_busy_ns = 0.0;   ///< master time registering tasks
  /// Master time stalled on table space: releasing posted completions
  /// and waiting for more (at threads=1, running tasks itself).
  double submit_stall_ns = 0.0;

  // --- Resolution telemetry (same meaning as the simulated engines') --------
  core::Resolver::Stats resolver;
  MasterResolver::TableStats tables;
  std::size_t ready_queue_peak = 0;
  std::uint32_t threads = 0;
  /// Kernel body that ran the tasks, and total calibrated work units it
  /// executed across all workers (0 under kSpin, whose model is time).
  KernelKind kernel = KernelKind::kSpin;
  std::uint64_t kernel_work_units = 0;
};

/// Single-use, like the simulated systems: construct, run once.
class ThreadedExecutor {
 public:
  explicit ThreadedExecutor(ExecConfig config);

  ThreadedExecutor(const ThreadedExecutor&) = delete;
  ThreadedExecutor& operator=(const ThreadedExecutor&) = delete;
  ~ThreadedExecutor();

  /// Executes the whole stream; returns when every task has completed or a
  /// deadlock was diagnosed. Throws std::logic_error on reuse, and
  /// rethrows the first exception a worker raised.
  [[nodiscard]] ExecReport run(std::unique_ptr<trace::TaskStream> stream);

  [[nodiscard]] const ExecConfig& config() const noexcept { return config_; }

 private:
  struct Impl;
  ExecConfig config_;
  std::unique_ptr<Impl> impl_;
  bool used_ = false;
};

}  // namespace nexuspp::exec
