#pragma once
// Maestro: the Task Maestro of the paper's Fig. 2 on real threads — the one
// master-side core both real-thread front ends run on (exec-threads'
// ThreadedExecutor and starss::Runtime).
//
// The thread acting as the master registers tasks with its MasterResolver
// (Write TP and Check Deps), makes ready tasks available to the workers
// over a TaskHandoff (Send TDs), and releases the completions they post
// back (Handle Finished). It alone touches the resolver, so every counter
// below is plain and every deadlock test is exact arithmetic on them.
//
// A task is named by a slot in [0, pool capacity), recycled FIFO
// (core::IndexFifo) once released, as the Maestro names a task by its Task
// Pool index: nothing here grows with the stream. Each slot holds the front
// end's payload (what a worker needs to run the task) in its own cache
// line, written by the master before the slot is made ready and rewritten
// only after its completion is drained.
//
// Registration stalls when no slot is free or the pool or table is out of
// space. Only a release frees any, so a stall step releases what the
// workers posted; if nothing was, it diagnoses a capacity deadlock
// (nothing in flight) or a wedge (tasks in flight, none ready or running:
// only a release could make one ready), and otherwise waits — as the
// end-of-stream drain (progress()) does when nothing was posted. Grants
// from one drain go to the workers after the whole drain, so no task is
// made ready, run and released inside the call that granted it. Between
// stalls the front end chooses when to release: exec-threads after every
// task, starss::Runtime only while waiting() counts a task that needs a
// grant.
//
// The waiting rule. A front end that sets kMasterRunsTasks makes the
// master a task runner whenever it must wait: while more tasks are
// published and unclaimed than there are workers, it claims the oldest
// (TaskHandoff::try_claim), runs it as executor `workers` (the index after
// the pool's), releases it and drains what the workers posted; otherwise
// it waits for a post. The guard leaves every worker one task to claim, so
// the master never takes the task an idle worker is about to run. With
// zero workers every ready task is unclaimed and the master runs them all:
// the deterministic mode. exec-threads opts in. starss::Runtime stays out:
// its master is a user thread inside submit(), wait_on() or wait_all(),
// and a Runtime task body may wait for that thread to go on (the gated
// task of Runtime.WaitOnReturnsWhileTheOnlyWorkerIsBusy); run on it, the
// body would wait on itself. Its master only ever waits for posts.
//
// `Front` is the front end, which owns the core and which the core calls
// directly (no virtual call):
//   using Payload = ...;                  // per-slot task data
//   static constexpr bool kMasterRunsTasks = ...;  // the waiting rule
//   void run(std::uint64_t serial, Payload&, std::uint32_t executor);
//   void released(Slot slot);             // master, after each release
//   bool release_inline(Slot slot);       // master: release when granted?
// run() is called on a worker, as executor w < workers, and on the master
// as executor `workers` when the front end opts in; an exception escaping
// it on a worker stops the pool and is returned by join(), one escaping it
// on the master leaves the Maestro call that ran the task. A task
// release_inline() names never runs: it is released on the master as soon
// as it is granted, without waiting for a worker (starss::Runtime's
// wait_on sentinel).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chk/chk.hpp"
#include "core/index_fifo.hpp"
#include "core/types.hpp"
#include "exec/handoff.hpp"
#include "exec/master_resolver.hpp"
#include "obs/timeline.hpp"

namespace nexuspp::exec {

template <class Front>
class Maestro {
 public:
  using Slot = TaskHandoff::TaskId;
  using Payload = typename Front::Payload;

  enum class Outcome : std::uint8_t {
    kReady,       ///< registered and runnable: make_ready() it, or
                  ///< release_inline() it if Front::release_inline holds
    kWaiting,     ///< registered; a later release makes it ready
    kStructural,  ///< can never register; failure() says why
    kStopped,     ///< deadlock (failure() says why) or the pool closed
  };

  /// `workers` threads run tasks once start() is called; 0 runs them on
  /// the master, which needs Front::kMasterRunsTasks. A non-null `rec`
  /// gets a "master" track for the hooks.
  Maestro(const MasterResolverConfig& config, std::uint32_t workers,
          Front& front, obs::TimelineRecorder* rec = nullptr)
      : front_(&front),
        cells_(std::make_unique<Cell[]>(config.pool_capacity)),
        handoff_(config.pool_capacity, workers),
        resolver_(config, config.pool_capacity),
        free_(config.pool_capacity),
        ready_(config.pool_capacity),
        unrun_(config.pool_capacity),
        workers_(workers),
        rec_(rec),
        links_(workers) {
    // One release grants each live task at most once.
    grants_.reserve(config.pool_capacity);
    if (rec_ != nullptr) master_track_ = rec_->add_track("master");
  }

  Maestro(const Maestro&) = delete;
  Maestro& operator=(const Maestro&) = delete;
  ~Maestro() { (void)join(); }

  // --- Worker pool -----------------------------------------------------------

  /// Starts the workers, each running serve().
  void start() {
    threads_.reserve(workers_);
    for (std::uint32_t w = 0; w < workers_; ++w) {
      threads_.emplace_back([this, w] {
        links_[w].child_begin();
        serve(w);
        links_[w].child_end();
      });
    }
  }

  /// Worker `w`'s loop: claim, run, post back, until the pool closes.
  /// Public so schedule-exploration threads can drive it.
  void serve(std::uint32_t w) {
    try {
      Slot slot = 0;
      while (handoff_.claim(slot)) {
        run(slot, w);
        handoff_.post(w, slot);
      }
    } catch (...) {
      // Keep the first error and stop everyone. Acq_rel: the winner alone
      // writes error_.
      if (!failed_.exchange(true, std::memory_order_acq_rel)) {
        error_ = std::current_exception();
      }
      handoff_.close();
    }
  }

  /// Closes the pool and joins the workers; tasks still ready are dropped.
  /// Idempotent. Returns the first exception a worker raised, if any.
  [[nodiscard]] std::exception_ptr join() {
    handoff_.close();
    for (std::size_t w = 0; w < threads_.size(); ++w) {
      threads_[w].join();
      links_[w].parent_join();
    }
    threads_.clear();
    return error_;
  }

  /// True once the pool is closed: a worker failed, or join() ran.
  [[nodiscard]] bool closed() const { return handoff_.closed(); }

  // --- Master ----------------------------------------------------------------

  /// Registers a task in a free slot (named in `slot`), stalling while no
  /// slot or no pool/table space is free. `params` is borrowed for the
  /// call. `on_stall(begin)` lets a caller time the stalls: called with
  /// false after every stall step, and with true before a stall that
  /// interrupts registration (the wait for a slot comes first, so it
  /// starts at the call).
  template <class OnStall>
  Outcome submit(std::uint64_t serial, std::uint64_t fn,
                 std::span<const core::Param> params, Payload payload,
                 Slot& slot, OnStall&& on_stall) {
    while (free_.empty()) {
      if (!stall(serial)) return Outcome::kStopped;
      on_stall(false);
    }
    slot = free_.pop();
    Cell& cell = cells_[slot];
    chk::plain_write(&cell);
    cell.serial = serial;
    cell.payload = std::move(payload);
    auto session = resolver_.begin_submit(slot, serial, fn, params);
    for (;;) {
      const double obs0 = rec_ != nullptr ? rec_->now_ns() : 0.0;
      const auto progress = session.advance();
      if (rec_ != nullptr) {
        // One span per registration burst; stalls between bursts get their
        // own spans, so master-track spans stay disjoint and ordered.
        rec_->record(master_track_, obs::EventKind::kSubmit, obs0,
                     rec_->now_ns() - obs0, serial, 0);
      }
      if (progress == MasterResolver::Progress::kDone) break;
      if (progress == MasterResolver::Progress::kStructural) {
        // Reported before anything was registered: the slot is unused.
        failure_ = session.failure();
        cell.payload = Payload{};
        free_.push(static_cast<std::uint32_t>(slot));
        return Outcome::kStructural;
      }
      on_stall(true);
      if (!stall(serial)) return Outcome::kStopped;
      on_stall(false);
    }
    ++in_flight_;
    if (rec_ != nullptr) {
      const double now = rec_->now_ns();
      rec_->record(master_track_, obs::EventKind::kInFlight, now, 0.0, 0,
                   in_flight_);
      if (session.ready()) {
        // Runnable straight from submission: no granting predecessor.
        rec_->record(master_track_, obs::EventKind::kReady, now, 0.0, serial,
                     obs::kNoPred);
      }
    }
    return session.ready() ? Outcome::kReady : Outcome::kWaiting;
  }

  /// Hands registered, ready tasks to the workers, in order.
  // NEXUS_HOT_PATH
  void make_ready(const Slot* slots, std::size_t count) {
    if (count == 0) return;
    handoff_.push(slots, count);
    at_workers_ += count;
    // The claimers' head is a line the workers write: read it only when
    // the master-local bound says the peak could rise, or for the trace.
    if (rec_ == nullptr && handoff_.ready_bound() <= ready_peak_) return;
    const std::size_t depth = handoff_.ready_depth();
    ready_peak_ = std::max(ready_peak_, depth);
    if (rec_ != nullptr) {
      rec_->record(master_track_, obs::EventKind::kReadyDepth, rec_->now_ns(),
                   0.0, 0, depth);
    }
  }

  /// Releases every completion the workers have posted, then makes the
  /// tasks they granted ready. False if none was posted.
  bool release_posted() {
    const std::size_t drained =
        handoff_.drain([this](Slot slot) { release(slot); });
    at_workers_ -= drained;
    flush();
    return drained != 0;
  }

  /// Releases a task release_inline() names that registered ready (one
  /// granted later is released by the release that grants it), then makes
  /// the tasks it granted ready.
  void release_inline(Slot slot) {
    release(slot);
    flush();
  }

  /// One step towards releasing the tasks in flight (call with some): a
  /// stall step without the capacity test. False when none can ever be
  /// released (failure() says why) or the pool closed.
  bool progress() { return release_posted() || await(); }

  [[nodiscard]] std::uint64_t in_flight() const noexcept { return in_flight_; }
  /// Registered tasks not yet made ready: those waiting for a grant, plus
  /// a task registered ready that the caller has yet to make ready.
  [[nodiscard]] std::uint64_t waiting() const noexcept {
    return in_flight_ - at_workers_;
  }
  /// Why the last kStructural / kStopped / false happened; empty when the
  /// pool closed.
  [[nodiscard]] const std::string& failure() const noexcept {
    return failure_;
  }
  [[nodiscard]] const MasterResolver& resolver() const noexcept {
    return resolver_;
  }
  /// Most tasks ever published and not yet claimed.
  [[nodiscard]] std::size_t ready_peak() const noexcept { return ready_peak_; }

 private:
  /// A slot's task. One cache line per slot: the master filling the next
  /// slot does not invalidate the line a worker is reading.
  struct alignas(64) Cell {
    std::uint64_t serial = 0;
    Payload payload{};
  };

  /// Handle Finished for one completed task: releases its accesses, frees
  /// its slot and queues the dependants it was holding back for flush(),
  /// releasing at once those that release_inline() names.
  // NEXUS_HOT_PATH
  void release(Slot slot) {
    for (;;) {
      const double obs0 = rec_ != nullptr ? rec_->now_ns() : 0.0;
      resolver_.finish(slot, grants_);
      free_.push(static_cast<std::uint32_t>(slot));
      --in_flight_;
      front_->released(slot);
      if (rec_ != nullptr) {
        const std::uint64_t serial = cells_[slot].serial;
        const double obs_end = rec_->now_ns();
        rec_->record(master_track_, obs::EventKind::kRelease, obs0,
                     obs_end - obs0, serial, 0);
        rec_->record(master_track_, obs::EventKind::kFinish, obs_end, 0.0,
                     serial, 0);
        // One grant instant per dependant this finish made runnable; the
        // granter's serial is the edge the critical-path analysis walks.
        for (const Slot granted : grants_) {
          rec_->record(master_track_, obs::EventKind::kReady, obs_end, 0.0,
                       cells_[granted].serial, serial);
        }
        rec_->record(master_track_, obs::EventKind::kInFlight, obs_end, 0.0,
                     0, in_flight_);
      }
      // Each live task is granted at most once, so neither queue ever
      // holds more than the slots.
      for (const Slot granted : grants_) {
        if (front_->release_inline(granted)) {
          unrun_[unrun_count_++] = granted;
        } else {
          ready_[queued_++] = granted;
        }
      }
      if (unrun_count_ == 0) return;
      slot = unrun_[--unrun_count_];
    }
  }

  void flush() {
    make_ready(ready_.data(), queued_);
    queued_ = 0;
  }

  /// Runs claimed task `slot` as executor `executor`.
  // NEXUS_HOT_PATH
  void run(Slot slot, std::uint32_t executor) {
    Cell& cell = cells_[slot];
    chk::plain_write(&cell);
    front_->run(cell.serial, cell.payload, executor);
  }

  /// Registration of task `serial` cannot go on until a release.
  bool stall(std::uint64_t serial) {
    const double obs0 = rec_ != nullptr ? rec_->now_ns() : 0.0;
    bool ok = release_posted();
    if (!ok && in_flight_ == 0) {
      failure_ = "capacity deadlock: task " + std::to_string(serial) +
                 " cannot be registered (dependence table / task pool too "
                 "small) and nothing is in flight to free space";
      return false;
    }
    if (!ok) ok = await();
    if (ok && rec_ != nullptr) {
      rec_->record(master_track_, obs::EventKind::kStall, obs0,
                   rec_->now_ns() - obs0, serial, 0);
    }
    return ok;
  }

  /// Nothing was posted: runs, releases and drains after the oldest ready
  /// task if the waiting rule allows it (see the file comment), else waits
  /// for a post and releases what came back.
  bool await() {
    if (at_workers_ == 0) {
      // Every task made ready is released, and only a release makes one
      // ready: the tasks in flight can never run.
      failure_ = "internal deadlock: " + std::to_string(in_flight_) +
                 " task(s) in flight but none ready or running";
      return false;
    }
    if constexpr (Front::kMasterRunsTasks) {
      // At zero workers every task made ready and unreleased is unclaimed,
      // so the master always finds one here and never waits for a post.
      // Once a worker failed (the pool closed), it runs nothing more.
      Slot slot = 0;
      if (!handoff_.closed() && handoff_.ready_depth() > workers_ &&
          handoff_.try_claim(slot)) {
        run(slot, workers_);
        --at_workers_;
        release(slot);
        (void)release_posted();
        return true;
      }
    }
    handoff_.wait_for_completion();
    if (handoff_.closed()) return false;
    (void)release_posted();
    return true;
  }

  // Read by the workers on every task, written before they start.
  Front* const front_;
  std::unique_ptr<Cell[]> cells_;
  TaskHandoff handoff_;

  // Master-owned, on lines of their own.
  alignas(64) MasterResolver resolver_;
  core::IndexFifo free_;
  std::uint64_t in_flight_ = 0;   ///< registered, not yet released
  std::uint64_t at_workers_ = 0;  ///< made ready, not yet released
  std::size_t ready_peak_ = 0;
  std::vector<Slot> grants_;  ///< one release's grants
  std::vector<Slot> ready_;  ///< a drain's grants, queued for flush()
  std::size_t queued_ = 0;
  std::vector<Slot> unrun_;  ///< granted, to release without a run
  std::size_t unrun_count_ = 0;
  std::string failure_;
  const std::uint32_t workers_;
  obs::TimelineRecorder* const rec_;  ///< null: every hook is one test
  std::uint32_t master_track_ = 0;

  std::vector<std::thread> threads_;
  /// Fork/join happens-before edges for the race checker (inert when
  /// schedcheck is off).
  std::vector<chk::ThreadLink> links_;
  chk::Atomic<bool> failed_{false};
  /// The first exception a worker raised; read after the join, which
  /// orders the write before the read.
  std::exception_ptr error_;
};

}  // namespace nexuspp::exec
