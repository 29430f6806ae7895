#include "exec/executor.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/maestro.hpp"
#include "exec/spin.hpp"
#include "sim/time.hpp"
#include "util/invariant.hpp"

namespace nexuspp::exec {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

void ExecConfig::validate() const {
  if (threads == 0) {
    throw std::invalid_argument("ExecConfig: threads must be >= 1");
  }
  resolver_config().validate();
}

MasterResolverConfig ExecConfig::resolver_config() const {
  MasterResolverConfig cfg;
  cfg.match_mode = match_mode;
  cfg.pool_capacity = task_pool_capacity;
  cfg.table_capacity = dep_table_capacity;
  cfg.kick_off_capacity = kick_off_capacity;
  cfg.allow_dummies = allow_dummies;
  return cfg;
}

/// The front end the Maestro core calls.
struct ThreadedExecutor::Impl {
  /// What a worker needs of a task besides its serial: a slot's payload.
  struct Task {
    std::uint64_t exec_ns = 0;
    Clock::time_point submitted_at{};
  };
  using Payload = Task;
  /// The master runs ready tasks while it waits (exec/maestro.hpp).
  static constexpr bool kMasterRunsTasks = true;

  /// Worker threads: none at threads == 1, where the master runs every
  /// task itself.
  static std::uint32_t pool_size(const ExecConfig& config) {
    return config.threads == 1 ? 0 : config.threads;
  }

  explicit Impl(const ExecConfig& config)
      : observer(config.observer),
        rec(config.timeline_recorder),
        // One executor per worker, then the master's, at index pool size.
        executors(pool_size(config) + 1),
        core(config.resolver_config(), pool_size(config), *this,
             config.timeline_recorder) {
    // Kernel state (stream buffers, matmul tiles), the turnaround
    // reservoirs and tracks are made here, before any worker exists: each
    // is touched by one executor, and the rings are single-writer. The
    // core added the master track.
    const std::uint32_t master = pool_size(config);
    kernels.reserve(master + 1);
    for (std::uint32_t e = 0; e <= master; ++e) {
      kernels.emplace_back(config.kernel, e);
      executors[e].turnaround.reserve();
      if (rec == nullptr) continue;
      const std::uint32_t track =
          rec->add_track(e == master ? std::string("master-run")
                                     : "worker-" + std::to_string(e));
      if (e == 0) run_track0 = track;
    }
  }

  /// Runs the kernel of task `serial` on executor `e` (a worker, or the
  /// master at e == pool size). The completion event fires before the
  /// task is released, so recorded completion order stays oracle-valid.
  // NEXUS_HOT_PATH
  void run(std::uint64_t serial, const Task& task, std::uint32_t e) {
    // Observers are the caller's code; nothing else here allocates.
    const util::NoAllocScope no_alloc("exec task path");
    if (observer != nullptr) {
      const util::AllowAllocScope caller("observer callback");
      observer->on_started(serial, e);
    }
    ExecutorStats& stats = executors[e];
    double obs_run0 = 0.0;
    if (rec != nullptr) obs_run0 = rec->now_ns();
    const auto t0 = Clock::now();
    stats.units += kernels[e].run(task.exec_ns, serial);
    const auto t1 = Clock::now();
    if (observer != nullptr) {
      const util::AllowAllocScope caller("observer callback");
      observer->on_completed(serial, e);
    }
    if (rec != nullptr) {
      rec->record(run_track0 + e, obs::EventKind::kRun, obs_run0,
                  rec->now_ns() - obs_run0, serial, 0);
    }
    stats.busy_ns += elapsed_ns(t0, t1);
    stats.turnaround.add(elapsed_ns(task.submitted_at, t1));
  }

  void released(std::uint64_t /*slot*/) const noexcept {}
  static constexpr bool release_inline(std::uint64_t /*slot*/) {
    return false;
  }

  /// One executor's accounting (written only by that worker, or by the
  /// master, and read after the pool is joined). Cache-line aligned so
  /// executors finishing tasks concurrently do not share lines.
  struct alignas(64) ExecutorStats {
    double busy_ns = 0.0;  ///< kernel time
    std::uint64_t units = 0;
    util::RunningStats turnaround;
  };

  // Read by the workers on every task; written before they start.
  core::ExecutionObserver* const observer;
  obs::TimelineRecorder* const rec;  ///< null: every hook is one test
  std::uint32_t run_track0 = 0;  ///< executor 0's run track
  /// Per executor, indexed like the kernels: the master's comes last.
  std::vector<ExecutorStats> executors;
  /// Per-executor kernel bodies.
  std::vector<KernelBody> kernels;
  using Core = Maestro<Impl>;
  Core core;
};

ThreadedExecutor::ThreadedExecutor(ExecConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

engine::RunReport ThreadedExecutor::run(
    std::unique_ptr<trace::TaskStream> stream) {
  if (stream == nullptr) {
    throw std::invalid_argument("ThreadedExecutor: null task stream");
  }
  if (ran_) {
    throw std::logic_error("ThreadedExecutor is single-use; make a new one");
  }
  ran_ = true;
  // Owned by this call: an exception leaving run() destroys the core, its
  // last member, which joins the workers before anything they use goes.
  const auto owner = std::make_unique<Impl>(config_);
  Impl& im = *owner;
  Impl::Core& core = im.core;
  using Outcome = Impl::Core::Outcome;

  engine::RunReport report;
  report.measures = engine::RunReport::kTables | engine::RunReport::kWallClock;
  report.tasks_expected = stream->total_tasks();
  // Every thread that runs tasks: the master too, whenever a pool exists.
  report.num_workers = static_cast<std::uint32_t>(im.executors.size());
  core.start();

  // Force the one-time spin calibration (>= 1 ms) before the clock starts:
  // lazily it would land inside the first task's measured kernel and bias
  // the first run's makespan — which is the baseline row in benches. The
  // work-unit kernels have their own one-time calibration; force it for
  // the same reason.
  (void)spin_iters_per_us();
  (void)kernel_unit_ns(config_.kernel.kind);

  const auto run_start = Clock::now();
  std::uint64_t submitted = 0;
  double total_exec_ns = 0.0;
  double submit_busy_ns = 0.0;   // master time registering tasks
  double submit_stall_ns = 0.0;  // master time stalled on table space
  // A stop with no diagnosis is a worker's failure, rethrown below.
  const auto stop = [&report](std::string why) {
    report.deadlocked = !why.empty();
    report.diagnosis = std::move(why);
  };

  // --- Master: release, pull, register, make ready ---------------------------
  for (;;) {
    // Completions posted since the last task go first: their releases free
    // slots and table space and make dependants ready before the next
    // registration.
    (void)core.release_posted();
    if (core.closed()) break;  // a worker failed
    auto record = stream->next();
    if (!record.has_value()) break;
    if (im.observer != nullptr) im.observer->on_submitted(record->serial);
    const auto submit_start = Clock::now();
    // Stall time: from when registration stopped to the end of each stall
    // step, so back-to-back stalls read the clock once each.
    auto stalled_at = submit_start;
    double task_stall_ns = 0.0;
    const auto on_stall = [&stalled_at, &task_stall_ns](bool begin) {
      const auto now = Clock::now();
      if (!begin) task_stall_ns += elapsed_ns(stalled_at, now);
      stalled_at = now;
    };
    const Impl::Task task{
        static_cast<std::uint64_t>(sim::to_ns(record->exec_time)),
        submit_start};
    std::uint64_t slot = 0;
    const auto outcome =
        core.submit(record->serial, record->fn, std::move(record->params),
                    task, slot, on_stall);
    if (outcome == Outcome::kStructural) {
      stop("structural deadlock: " + core.failure());
      break;
    }
    if (outcome == Outcome::kStopped) {
      stop(core.failure());
      break;
    }
    const auto now = Clock::now();
    submit_stall_ns += task_stall_ns;
    submit_busy_ns += elapsed_ns(submit_start, now) - task_stall_ns;
    total_exec_ns += static_cast<double>(task.exec_ns);
    ++submitted;
    if (outcome == Outcome::kReady) {
      core.make_ready(&slot, 1);
    }
  }

  // --- Master: release the rest ----------------------------------------------
  while (!report.deadlocked && core.in_flight() > 0 && !core.closed()) {
    if (!core.progress()) stop(core.failure());
  }
  if (const std::exception_ptr error = core.join()) {
    std::rethrow_exception(error);
  }

  const double wall_ns = elapsed_ns(run_start, Clock::now());

  // --- Report -----------------------------------------------------------------
  // Real wall-clock time in the makespan slot: speedup-vs-baseline and the
  // table/CSV paths work unchanged, now over measured time.
  report.makespan = sim::ns_f(wall_ns);
  report.tasks_submitted = submitted;
  report.tasks_completed = submitted - core.in_flight();
  report.stages = {{"submit", sim::ns_f(submit_busy_ns),
                    sim::ns_f(submit_stall_ns)}};
  report.total_exec_time = sim::ns_f(total_exec_ns);
  report.exec_tasks_per_sec =
      wall_ns > 0.0
          ? static_cast<double>(report.tasks_completed) * 1e9 / wall_ns
          : 0.0;
  report.exec_worker_utilization.reserve(im.executors.size());
  double busy_total = 0.0;
  for (const auto& stats : im.executors) {
    report.exec_worker_utilization.push_back(
        wall_ns > 0.0 ? stats.busy_ns / wall_ns : 0.0);
    busy_total += stats.busy_ns;
    report.turnaround_ns.merge(stats.turnaround);
    report.exec_kernel_work_units += stats.units;
  }
  report.avg_core_utilization =
      wall_ns > 0.0
          ? busy_total / (wall_ns * static_cast<double>(report.num_workers))
          : 0.0;
  report.exec_kernel = to_string(config_.kernel.kind);
  report.ready_queue_peak = core.ready_peak();
  report.set_table_stats(core.resolver().pool_stats(),
                         core.resolver().table_stats(),
                         core.resolver().resolver_stats());
  if (!report.deadlocked && submitted != report.tasks_expected) {
    // Every task ran; only the stream's own count was wrong.
    report.diagnosis = "stream length mismatch: total_tasks() said " +
                       std::to_string(report.tasks_expected) +
                       ", the stream produced " + std::to_string(submitted);
  }
  return report;
}

}  // namespace nexuspp::exec
