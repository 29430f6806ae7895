#include "exec/executor.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "chk/chk.hpp"
#include "exec/handoff.hpp"
#include "exec/spin.hpp"
#include "sim/time.hpp"

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
  if (!(duration_scale >= 0.0)) {
    throw std::invalid_argument("ExecConfig: duration_scale must be >= 0");
  }
  kernel.validate();
  resolver_config().validate();
}

ShardedResolverConfig ExecConfig::resolver_config() const {
  ShardedResolverConfig cfg;
  cfg.shards = banks;
  cfg.region_bytes = region_bytes;
  cfg.match_mode = match_mode;
  cfg.pool_capacity = task_pool_capacity;
  cfg.table_capacity = dep_table_capacity;
  cfg.kick_off_capacity = kick_off_capacity;
  cfg.allow_dummies = allow_dummies;
  cfg.sync = sync;
  return cfg;
}

struct ThreadedExecutor::Impl {
  std::unique_ptr<ShardedResolver> resolver;
  std::unique_ptr<TaskHandoff> handoff;
  std::uint64_t expected = 0;
  /// threads == 1: no pool; the master runs ready tasks itself wherever it
  /// would otherwise wait for a worker.
  bool inline_mode = false;

  // Per-task bookkeeping, pre-sized before any worker starts. The master
  // writes a task's entries before making it ready; the ready channel's
  // publication orders them before the worker's reads.
  std::vector<std::uint64_t> serials;
  std::vector<std::uint64_t> exec_ns;
  std::vector<Clock::time_point> submitted_at;

  // Master-owned progress: only the master registers, makes ready and
  // releases tasks, so these are plain counters and every deadlock test
  // below is exact arithmetic on them.
  std::uint64_t in_flight = 0;   ///< registered, not yet released
  std::uint64_t made_ready = 0;  ///< pushed to the ready channel
  std::uint64_t completed = 0;   ///< released
  std::size_t queue_peak = 0;
  /// Reusable grant buffer for ShardedResolver::finish.
  std::vector<std::uint64_t> grants;

  /// One worker's accounting (written only by that worker — by the master
  /// at threads=1 — and read after the pool is joined). Cache-line aligned
  /// so workers finishing tasks concurrently do not share lines.
  struct alignas(64) WorkerStats {
    double busy_ns = 0.0;  ///< kernel time
    std::uint64_t units = 0;
    util::RunningStats turnaround;
  };
  std::vector<WorkerStats> workers;
  /// Per-worker kernel bodies (slot w used only by worker w; the inline
  /// master uses slot 0).
  std::vector<KernelBody> kernels;

  /// The first exception a worker raised; run() rethrows it once the pool
  /// is joined (the join orders the write before the read).
  chk::Atomic<bool> worker_failed{false};
  std::exception_ptr worker_error;

  core::ExecutionObserver* observer = nullptr;

  // Timeline tracing (null when disabled — every hook is a pointer test).
  obs::TimelineRecorder* rec = nullptr;
  std::uint32_t master_track = 0;
  std::uint32_t worker_track0 = 0;

  /// Runs task `gid`'s kernel on worker `widx`. The completion event fires
  /// before the task is posted back, hence before its accesses are
  /// released, so recorded completion order stays oracle-valid.
  // NEXUS_HOT_PATH
  void run_task(std::uint64_t gid, std::uint32_t widx) {
    if (observer != nullptr) observer->on_started(serials[gid], widx);
    WorkerStats& stats = workers[widx];
    double obs_run0 = 0.0;
    if (rec != nullptr) obs_run0 = rec->now_ns();
    const auto t0 = Clock::now();
    stats.units += kernels[widx].run(exec_ns[gid], serials[gid]);
    const auto t1 = Clock::now();
    if (observer != nullptr) observer->on_completed(serials[gid], widx);
    if (rec != nullptr) {
      rec->record(worker_track0 + widx, obs::EventKind::kRun, obs_run0,
                  rec->now_ns() - obs_run0, serials[gid], 0);
    }
    stats.busy_ns += elapsed_ns(t0, t1);
    stats.turnaround.add(elapsed_ns(submitted_at[gid], t1));
  }

  void worker_loop(std::uint32_t widx) {
    try {
      std::uint64_t gid = 0;
      while (handoff->claim(gid)) {
        run_task(gid, widx);
        handoff->post(widx, gid);
      }
    } catch (...) {
      // A throwing kernel or observer callback: keep the first error, stop
      // the master and the other workers, and let run() rethrow it.
      // Acq_rel: the winner alone writes worker_error.
      if (!worker_failed.exchange(true, std::memory_order_acq_rel)) {
        worker_error = std::current_exception();
      }
      handoff->close();
    }
  }

  /// Pushes newly ready tasks to the workers. Master only.
  // NEXUS_HOT_PATH
  void make_ready(const std::uint64_t* gids, std::size_t count) {
    if (count == 0) return;
    handoff->push(gids, count);
    made_ready += count;
    const std::size_t depth = handoff->ready_depth();
    queue_peak = std::max(queue_peak, depth);
    if (rec != nullptr) {
      rec->record(master_track, obs::EventKind::kReadyDepth, rec->now_ns(),
                  0.0, 0, depth);
    }
  }

  /// The Handle Finished step for one completed task: release its
  /// accesses and make the dependants it was holding back ready. Master
  /// only — no worker ever touches the resolver.
  // NEXUS_HOT_PATH
  void release(std::uint64_t gid) {
    const double obs0 = rec != nullptr ? rec->now_ns() : 0.0;
    resolver->finish(gid, grants);
    --in_flight;
    ++completed;
    if (rec != nullptr) {
      const double obs_end = rec->now_ns();
      rec->record(master_track, obs::EventKind::kRelease, obs0,
                  obs_end - obs0, serials[gid], 0);
      rec->record(master_track, obs::EventKind::kFinish, obs_end, 0.0,
                  serials[gid], 0);
      // One grant instant per dependant this finish made runnable; the
      // granter's serial is the edge the critical-path analysis walks.
      for (const std::uint64_t granted : grants) {
        rec->record(master_track, obs::EventKind::kReady, obs_end, 0.0,
                    serials[granted], serials[gid]);
      }
      rec->record(master_track, obs::EventKind::kInFlight, obs_end, 0.0, 0,
                  in_flight);
    }
    make_ready(grants.data(), grants.size());
  }

  /// Releases every completion the workers have posted; returns how many.
  std::size_t drain() {
    return handoff->drain([this](std::uint64_t gid) { release(gid); });
  }

  /// Tasks remain in flight, yet every task ever made ready has been
  /// released: none is ready, running or posted, and only a release can
  /// make another ready. Exact, because only the master does either.
  [[nodiscard]] bool wedged() const {
    return in_flight > 0 && made_ready == completed;
  }

  /// Waits for a worker to post a completion (or close the handoff). At
  /// threads=1 there is no worker: run and release the oldest ready task
  /// instead. Call only when !wedged().
  void await_progress() {
    if (!inline_mode) {
      handoff->wait_for_completion();
      return;
    }
    std::uint64_t gid = 0;
    if (handoff->try_claim(gid)) {
      run_task(gid, 0);
      release(gid);
    }
  }

  [[nodiscard]] std::string wedge_diagnosis() const {
    return "internal deadlock: " + std::to_string(in_flight) +
           " task(s) in flight but none ready or running";
  }
};

ThreadedExecutor::ThreadedExecutor(ExecConfig config)
    : config_(std::move(config)), impl_(std::make_unique<Impl>()) {
  config_.validate();
}

ThreadedExecutor::~ThreadedExecutor() = default;

ExecReport ThreadedExecutor::run(std::unique_ptr<trace::TaskStream> stream) {
  if (stream == nullptr) {
    throw std::invalid_argument("ThreadedExecutor: null task stream");
  }
  if (used_) {
    throw std::logic_error("ThreadedExecutor is single-use; make a new one");
  }
  used_ = true;

  Impl& im = *impl_;
  im.expected = stream->total_tasks();
  im.inline_mode = config_.threads == 1;
  im.observer = config_.observer;
  im.resolver = std::make_unique<ShardedResolver>(config_.resolver_config(),
                                                  im.expected);
  im.handoff = std::make_unique<TaskHandoff>(
      im.expected, im.inline_mode ? 0 : config_.threads);
  im.serials.resize(im.expected);
  im.exec_ns.resize(im.expected);
  im.submitted_at.resize(im.expected);
  im.workers = std::vector<Impl::WorkerStats>(config_.threads);
  // Kernel state (stream buffers, matmul tiles) is built here, before any
  // worker thread exists: each body is then touched by exactly one worker.
  im.kernels.reserve(config_.threads);
  for (std::uint32_t w = 0; w < config_.threads; ++w) {
    im.kernels.emplace_back(config_.kernel, w);
  }
  // Track registration happens here, before any worker thread exists —
  // the rings are single-writer and must not be added to concurrently.
  obs::TimelineRecorder* const rec = config_.timeline_recorder;
  im.rec = rec;
  if (rec != nullptr) {
    im.master_track = rec->add_track("master");
    im.worker_track0 = rec->add_track("worker-0");
    for (std::uint32_t w = 1; w < config_.threads; ++w) {
      (void)rec->add_track("worker-" + std::to_string(w));
    }
  }

  ExecReport report;
  report.tasks_expected = im.expected;
  report.threads = config_.threads;
  report.banks = config_.banks;
  report.sync_mode = config_.sync;

  std::vector<std::thread> pool;
  // Fork/join happens-before edges for the race checker — without them a
  // checker session would flag the master's post-join reads of worker
  // accounting as races. Inert (empty objects) when schedcheck is off.
  std::vector<chk::ThreadLink> links(config_.threads);
  // Shutdown is idempotent and runs on *every* exit path while workers
  // are live — including exceptions from the stream, observer callbacks
  // or allocation failures on the master. Unwinding past a joinable
  // std::thread calls std::terminate, which would take the whole sweep
  // process down instead of letting SweepDriver contain the point's
  // failure. (Worker-side exceptions are caught in worker_loop and
  // rethrown below.)
  const auto shutdown_pool = [&im, &pool, &links] {
    if (pool.empty()) return;
    im.handoff->close();
    for (std::size_t w = 0; w < pool.size(); ++w) {
      if (pool[w].joinable()) {
        pool[w].join();
        links[w].parent_join();
      }
    }
    pool.clear();
  };
  struct PoolGuard {
    const decltype(shutdown_pool)& shutdown;
    ~PoolGuard() { shutdown(); }
  };
  const PoolGuard pool_guard{shutdown_pool};
  if (!im.inline_mode) {
    pool.reserve(config_.threads);
    for (std::uint32_t w = 0; w < config_.threads; ++w) {
      chk::ThreadLink& link = links[w];
      pool.emplace_back([&im, &link, w] {
        link.child_begin();
        im.worker_loop(w);
        link.child_end();
      });
    }
  }

  // The master binds its own track for resolver-level events raised while
  // registering and releasing tasks.
  const obs::ThreadTrackScope obs_scope(rec, im.master_track);

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
  const auto abort_run = [&](std::string why) {
    report.deadlocked = true;
    report.diagnosis = std::move(why);
  };

  // --- Master: release, pull, register, make ready ---------------------------
  std::uint64_t gid = 0;
  while (!report.deadlocked) {
    // Completions posted since the last task go first: their releases free
    // table space and make dependants ready before the next registration.
    (void)im.drain();
    if (im.handoff->closed()) break;  // a worker failed
    auto record = stream->next();
    if (!record.has_value()) break;
    if (gid >= im.expected) {
      abort_run("malformed stream: produced more tasks than total_tasks()");
      break;
    }
    if (im.observer != nullptr) im.observer->on_submitted(record->serial);
    im.serials[gid] = record->serial;
    im.exec_ns[gid] = static_cast<std::uint64_t>(
        sim::to_ns(record->exec_time) * config_.duration_scale);
    total_exec_ns += static_cast<double>(im.exec_ns[gid]);

    auto session = im.resolver->begin_submit(gid, record->serial, record->fn,
                                             std::move(record->params));
    const auto submit_start = Clock::now();
    // Read by the worker that runs the task, after the ready channel
    // publishes it.
    im.submitted_at[gid] = submit_start;
    double task_stall_ns = 0.0;  // time not spent registering this task
    for (;;) {
      const double obs_seg0 = rec != nullptr ? rec->now_ns() : 0.0;
      const auto progress = session.advance();
      if (rec != nullptr) {
        // One span per registration burst; stalls between bursts get their
        // own spans, so master-track spans stay disjoint and ordered.
        rec->record(im.master_track, obs::EventKind::kSubmit, obs_seg0,
                    rec->now_ns() - obs_seg0, record->serial, 0);
      }
      if (progress == ShardedResolver::Progress::kDone) break;
      if (progress == ShardedResolver::Progress::kStructural) {
        abort_run("structural deadlock: " + session.failure());
        break;
      }
      // Stalled on table/pool space. Only a release frees space, and only
      // this thread releases: drain what the workers posted, and wait for
      // more only when nothing was.
      const auto stall_start = Clock::now();
      const double obs_stall0 = rec != nullptr ? rec->now_ns() : 0.0;
      if (im.drain() == 0) {
        if (im.in_flight == 0) {
          abort_run("capacity deadlock: task " +
                    std::to_string(record->serial) +
                    " cannot be registered (dependence table / task pool "
                    "too small) and nothing is in flight to free space");
          break;
        }
        if (im.wedged()) {
          abort_run(im.wedge_diagnosis());
          break;
        }
        im.await_progress();
        if (im.handoff->closed()) break;
        (void)im.drain();
      }
      task_stall_ns += elapsed_ns(stall_start, Clock::now());
      if (rec != nullptr) {
        rec->record(im.master_track, obs::EventKind::kStall, obs_stall0,
                    rec->now_ns() - obs_stall0, record->serial, 0);
      }
    }
    if (report.deadlocked || im.handoff->closed()) break;

    const auto now = Clock::now();
    report.submit_stall_ns += task_stall_ns;
    report.submit_busy_ns += elapsed_ns(submit_start, now) - task_stall_ns;
    ++im.in_flight;
    ++submitted;
    if (rec != nullptr) {
      const double obs_now = rec->now_ns();
      rec->record(im.master_track, obs::EventKind::kInFlight, obs_now, 0.0,
                  0, im.in_flight);
      if (session.ready()) {
        // Runnable straight from submission: no granting predecessor.
        rec->record(im.master_track, obs::EventKind::kReady, obs_now, 0.0,
                    record->serial, obs::kNoPred);
      }
    }
    if (session.ready()) im.make_ready(&gid, 1);
    ++gid;
  }

  // --- Master: release the rest ----------------------------------------------
  while (!report.deadlocked && im.completed < submitted &&
         !im.handoff->closed()) {
    if (im.drain() > 0) continue;
    if (im.wedged()) {
      abort_run(im.wedge_diagnosis());
      break;
    }
    im.await_progress();
  }
  shutdown_pool();
  if (im.worker_error) std::rethrow_exception(im.worker_error);

  const double wall_ns = elapsed_ns(run_start, Clock::now());

  // --- Report -----------------------------------------------------------------
  report.tasks_submitted = submitted;
  report.tasks_completed = im.completed;
  report.wall_ns = wall_ns;
  report.total_exec_ns = total_exec_ns;
  report.tasks_per_sec =
      wall_ns > 0.0
          ? static_cast<double>(report.tasks_completed) * 1e9 / wall_ns
          : 0.0;
  report.worker_busy_ns.reserve(im.workers.size());
  report.worker_utilization.reserve(im.workers.size());
  double busy_total = 0.0;
  for (const auto& stats : im.workers) {
    report.worker_busy_ns.push_back(stats.busy_ns);
    report.worker_utilization.push_back(
        wall_ns > 0.0 ? stats.busy_ns / wall_ns : 0.0);
    busy_total += stats.busy_ns;
    report.turnaround_ns.merge(stats.turnaround);
    report.kernel_work_units += stats.units;
  }
  report.avg_utilization =
      wall_ns > 0.0
          ? busy_total / (wall_ns * static_cast<double>(config_.threads))
          : 0.0;
  report.resolver = im.resolver->resolver_stats();
  report.tables = im.resolver->table_stats();
  report.sync = im.resolver->sync_stats();
  report.ready_queue_peak = im.queue_peak;
  report.kernel = config_.kernel.kind;
  if (!report.deadlocked && report.tasks_completed != report.tasks_expected) {
    report.deadlocked = true;
    report.diagnosis = "stream ended after " + std::to_string(submitted) +
                       " of " + std::to_string(report.tasks_expected) +
                       " expected tasks";
  }
  return report;
}

}  // namespace nexuspp::exec
