#pragma once
// TaskHandoff: the run queue between a Task Maestro thread and its workers
// — the software form of the Nexus++ Task Maestro's two channels to the
// worker cores: ready task descriptors out (Send TDs), finished task ids
// back (Handle Finished). The master is the only thread that touches the
// resolver; workers only claim ready ids, run them and post them back.
// exec::Maestro (exec/maestro.hpp) owns one for both real-thread front
// ends.
//
// `capacity` bounds the tasks in flight: made ready and not yet drained
// back by the master. Both channels are rings of that many slots (rounded
// up to a power of two), allocated once at construction and
// allocation-free after; positions grow without bound and index the ring
// modulo its size, so a caller may recycle ids forever as long as it keeps
// to the bound.
//
//   ready      master -> workers. The master is the only producer: it
//              writes the slots, then publishes the new tail. Workers (and
//              the master itself at threads=1) claim the oldest unclaimed
//              position with a CAS on the head, so claims are FIFO. A
//              claimer reads its slot *before* the CAS that claims it:
//              once the head passes a position the master may reuse its
//              slot, so a read after the CAS could see the next lap's id.
//              A claimer that loses the CAS discards what it read, which
//              is why the slots are (relaxed) atomics. push() checks the
//              ring against the claimed head (a cached copy, reloaded
//              when the ring looks full), so the master never overwrites
//              a slot some claimer has yet to win.
//
//   completed  workers -> master, one single-producer log per worker, of
//              stamped entries {stamp, id}, four to a cache line. A worker
//              writes the finished id, then stores the entry's stamp:
//              its own post count, kept on a line only it writes. The
//              master consumes entry `head` while its stamp reads
//              head + 1, so one drained completion costs one read of the
//              worker's line, with no separate tail to read first.
//              Per-worker logs keep a worker preempted mid-post from
//              holding back anyone else's completions, which a shared
//              fetch_add slot would do. A worker's undrained posts are
//              tasks in flight, so a log never holds more than `capacity`
//              of them: a post never waits for the master, the entry it
//              reuses was drained before the master made the posted task
//              ready, and a reused entry's old stamp can never equal the
//              one the master waits for there.
//
// Waiting: a thread with nothing to do spins for kSpinPauses cpu_relax
// rounds, then parks on the park lock (rank LockDomain::kRunQueue) and a
// condition variable. Parked threads are counted; a publisher takes the
// park lock and notifies only when the count is nonzero. The count and the
// published index or stamp are both seq_cst, so either the parking
// thread's re-check sees the publication or the publisher sees the parked
// thread.
// Under a schedule controller the spin collapses to one controlled yield:
// waiting is a scheduling decision there, and parking gets explored.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "chk/chk.hpp"
#include "exec/spin.hpp"
#include "util/invariant.hpp"

namespace nexuspp::exec {

class TaskHandoff {
 public:
  using TaskId = std::uint64_t;

  /// Spin rounds before a waiting thread parks, chosen by measurement on
  /// fine-stream (4-vCPU Xeon VM, median of 20 runs): at 16 threads 2 000
  /// gave 134k-164k tasks/s, 200 about 105k (more wake-ups on the master's
  /// path) and 20 000 about 72k (spinning workers starve the master); at
  /// 2 threads the three were within noise.
  static constexpr std::uint32_t kSpinPauses = 2000;

  /// `capacity` bounds the tasks in flight (made ready, not yet drained);
  /// `workers` is the number of completion posters (0 at threads=1).
  TaskHandoff(std::uint64_t capacity, std::uint32_t workers)
      : mask_(std::bit_ceil(std::max<std::uint64_t>(capacity, 1)) - 1),
        // Zeroed, so even a claim of an unwritten slot (the schedcheck
        // mutants) reads a defined id and its schedule replays exactly.
        ready_(std::make_unique<chk::Atomic<TaskId>[]>(mask_ + 1)),
        // Zeroed stamps: no entry reads as posted before its first post.
        logs_(std::make_unique<Entry[]>(std::size_t{workers} * (mask_ + 1))),
        posts_(std::make_unique<Position[]>(workers)),
        heads_(workers, 0) {}

  TaskHandoff(const TaskHandoff&) = delete;
  TaskHandoff& operator=(const TaskHandoff&) = delete;

  // --- Master side ----------------------------------------------------------

  /// Publishes `count` ready tasks in order. Master only.
  // NEXUS_HOT_PATH
  void push(const TaskId* ids, std::size_t count) {
    if (count == 0) return;
    if (tail_ + count - claimed_seen_ > mask_ + 1) {
      // Acquire: pairs with try_claim's release CAS, so every winning read
      // of a slot below the value seen happens before the stores below
      // reuse it. Reloaded only when the cached head says the ring is full.
      claimed_seen_ = claimed_.load(std::memory_order_acquire);
      if (tail_ + count - claimed_seen_ > mask_ + 1) {
        throw std::logic_error(
            "TaskHandoff: more tasks in flight than capacity");
      }
    }
    // Compiled-in mutant (schedcheck harness only; constant-false and
    // folded away in normal builds): the tail goes out before the slot
    // stores, so a worker can claim a slot before its id is written.
    const bool early = chk::Faults::publish_ready_tail_early();
    if (early) published_.store(tail_ + count, std::memory_order_seq_cst);
    for (std::size_t i = 0; i < count; ++i) {
      // Relaxed: published by the tail store below.
      ready_[(tail_ + i) & mask_].store(ids[i], std::memory_order_relaxed);
    }
    tail_ += count;
    // Seq_cst: publishes the slots (release half, paired with try_claim's
    // acquire) and orders this store before the sleeper load below.
    if (!early) published_.store(tail_, std::memory_order_seq_cst);
    if (idle_workers_.load(std::memory_order_seq_cst) != 0) {
      wake(work_cv_, count == 1);
    }
  }

  /// Ready tasks published but not yet claimed. Master only. Reads the
  /// claimers' head, a line they write, and refreshes the cached copy.
  [[nodiscard]] std::uint64_t ready_depth() {
    // Acquire, like push()'s reload: the refreshed copy may license
    // push() to reuse slots below it.
    claimed_seen_ = claimed_.load(std::memory_order_acquire);
    return tail_ - claimed_seen_;
  }

  /// An upper bound on ready_depth() from master-owned state alone: the
  /// cached head only lags the real one. Master only.
  [[nodiscard]] std::uint64_t ready_bound() const noexcept {
    return tail_ - claimed_seen_;
  }

  /// Calls `on_done(id)` for every completion posted so far and returns
  /// how many it consumed. Master only.
  // NEXUS_HOT_PATH
  template <class OnDone>
  std::size_t drain(OnDone&& on_done) {
    std::size_t drained = 0;
    for (std::size_t w = 0; w < heads_.size(); ++w) {
      const Entry* const log = logs_.get() + w * (mask_ + 1);
      for (std::uint64_t& head = heads_[w];; ++head) {
        const Entry& entry = log[head & mask_];
        // Acquire: pairs with post()'s publishing store.
        if (entry.stamp.load(std::memory_order_acquire) != head + 1) break;
        chk::plain_read(&entry.id);
        on_done(entry.id);
        ++drained;
      }
    }
    return drained;
  }

  /// Returns once a completion is posted or the handoff is closed. Master
  /// only; call with tasks outstanding, or a worker's close, pending.
  void wait_for_completion() {
    const auto wake_up = [this] { return any_posted() || closed(); };
    if (!spin_until(wake_up)) park(master_parked_, done_cv_, wake_up);
  }

  // --- Worker side ----------------------------------------------------------

  /// Claims the oldest ready task, waiting for one if none is published.
  /// Returns false once the handoff is closed, even with tasks left
  /// unclaimed (the run is over or aborted).
  // NEXUS_HOT_PATH
  bool claim(TaskId& id) {
    const auto wake_up = [this] { return claimable() || closed(); };
    for (;;) {
      if (closed()) return false;
      if (try_claim(id)) return true;
      if (!spin_until(wake_up)) park(idle_workers_, work_cv_, wake_up);
    }
  }

  /// Posts `worker`'s finished task back to the master. One thread per
  /// worker index.
  // NEXUS_HOT_PATH
  void post(std::uint32_t worker, TaskId id) {
    const std::uint64_t position = posts_[worker].value++;
    Entry& entry = logs_[worker * (mask_ + 1) + (position & mask_)];
    // Compiled-in mutant (schedcheck harness only; constant-false and
    // folded away in normal builds): the stamp goes out before the id, so
    // the master can drain an entry whose id is not written yet.
    const bool early = chk::Faults::publish_completion_stamp_early();
    if (early) entry.stamp.store(position + 1, std::memory_order_seq_cst);
    chk::plain_write(&entry.id);
    entry.id = id;
    // Seq_cst: publishes the id (release half, paired with drain's
    // acquire) and orders this store before the sleeper load below.
    if (!early) entry.stamp.store(position + 1, std::memory_order_seq_cst);
    if (master_parked_.load(std::memory_order_seq_cst) != 0) {
      wake(done_cv_, true);
    }
  }

  // --- Any thread -----------------------------------------------------------

  /// Claims the oldest ready task without waiting; false when none is
  /// published. The master uses it at threads=1, where it runs tasks.
  // NEXUS_HOT_PATH
  bool try_claim(TaskId& id) {
    // Compiled-in mutant (schedcheck harness only; constant-false in
    // normal builds): the old claim order, CAS first and read after, which
    // can read a slot the master has already refilled for the next lap.
    const bool late_read = chk::Faults::read_ready_slot_after_claim();
    // Relaxed: the CAS below revalidates the head.
    std::uint64_t head = claimed_.load(std::memory_order_relaxed);
    for (;;) {
      // Acquire: pairs with push()'s store, so the slot write is visible.
      if (head >= published_.load(std::memory_order_acquire)) return false;
      // Relaxed: ordered by the acquire above; a stale head reads a
      // reused slot, and then the CAS fails and the value is dropped.
      if (!late_read) id = ready_[head & mask_].load(std::memory_order_relaxed);
      // Release on success: orders the read above before push()'s acquire
      // check, which precedes any reuse of the slot. Relaxed on failure:
      // the loop re-reads everything it needs.
      if (claimed_.compare_exchange_weak(head, head + 1,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
        break;
      }
    }
    if (late_read) id = ready_[head & mask_].load(std::memory_order_relaxed);
    return true;
  }

  /// Wakes every parked thread; claim() returns false from then on and
  /// wait_for_completion() returns at once. Idempotent.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    const std::lock_guard<chk::Mutex> lock(park_mu_);
    const util::LockRankGuard rank(util::LockDomain::kRunQueue);
    work_cv_.notify_all();
    done_cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    // Acquire: pairs with close(); a worker that fails closes the handoff
    // after recording its error.
    return closed_.load(std::memory_order_acquire);
  }

 private:
  /// A completion-log entry: `id` is valid once `stamp` reads the post's
  /// position + 1. Four to a cache line.
  struct Entry {
    chk::Atomic<std::uint64_t> stamp{0};
    TaskId id = 0;
  };

  /// A worker's post count, on a cache line only that worker writes.
  struct alignas(64) Position {
    std::uint64_t value = 0;
  };

  [[nodiscard]] bool claimable() const {
    // Seq_cst: the re-check half of the sleeper protocol (see push).
    return claimed_.load(std::memory_order_relaxed) <
           published_.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] bool any_posted() const {
    for (std::size_t w = 0; w < heads_.size(); ++w) {
      const std::uint64_t head = heads_[w];
      const Entry& entry = logs_[w * (mask_ + 1) + (head & mask_)];
      // Seq_cst: the re-check half of the sleeper protocol (see post).
      if (entry.stamp.load(std::memory_order_seq_cst) == head + 1) {
        return true;
      }
    }
    return false;
  }

  /// Spins until `ready()` holds; false when the spin budget ran out.
  template <class Ready>
  static bool spin_until(const Ready& ready) {
    for (std::uint32_t i = 0; i < kSpinPauses; ++i) {
      if (ready()) return true;
      if (chk::spin_yield()) break;
      cpu_relax();
    }
    return ready();
  }

  /// Blocks on `cv` until `ready()` holds, counted in `sleepers`.
  template <class Ready>
  void park(chk::Atomic<std::uint32_t>& sleepers, chk::CondVar& cv,
            const Ready& ready) {
    std::unique_lock<chk::Mutex> lock(park_mu_);
    const util::LockRankGuard rank(util::LockDomain::kRunQueue);
    // Seq_cst: must precede the predicate's loads (see the file comment).
    sleepers.fetch_add(1, std::memory_order_seq_cst);
    cv.wait(lock, ready);
    // Relaxed: a stale nonzero count only costs a publisher one notify.
    sleepers.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Notifies under the park lock, so a thread between its predicate check
  /// and its wait cannot miss the signal.
  void wake(chk::CondVar& cv, bool one) {
    const std::lock_guard<chk::Mutex> lock(park_mu_);
    const util::LockRankGuard rank(util::LockDomain::kRunQueue);
    if (one) {
      cv.notify_one();
    } else {
      cv.notify_all();
    }
  }

  // Read on every claim and post; written only at construction.
  const std::uint64_t mask_;  ///< ring size - 1 (a power of two)
  std::unique_ptr<chk::Atomic<TaskId>[]> ready_;
  /// Worker w's completion log: entries [w * ring, (w + 1) * ring).
  std::unique_ptr<Entry[]> logs_;
  std::unique_ptr<Position[]> posts_;  ///< worker-owned post counts
  std::vector<std::uint64_t> heads_;  ///< master-owned drain cursors
  // Written on every push, so off the lines the workers read.
  alignas(64) std::uint64_t tail_ = 0;  ///< master-owned copy of published_
  std::uint64_t claimed_seen_ = 0;  ///< master-owned, stale claimed_
  alignas(64) chk::Atomic<std::uint64_t> published_{0};
  alignas(64) chk::Atomic<std::uint64_t> claimed_{0};
  alignas(64) chk::Atomic<std::uint32_t> idle_workers_{0};
  chk::Atomic<std::uint32_t> master_parked_{0};
  chk::Atomic<bool> closed_{false};
  chk::Mutex park_mu_;
  chk::CondVar work_cv_;  ///< workers waiting for a ready task
  chk::CondVar done_cv_;  ///< the master waiting for a completion
};

}  // namespace nexuspp::exec
