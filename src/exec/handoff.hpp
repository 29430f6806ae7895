#pragma once
// TaskHandoff: the run queue between the exec-threads master and its
// workers — the software form of the Nexus++ Task Maestro's two channels to
// the worker cores: ready task descriptors out (Send TDs), finished task ids
// back (Handle Finished). The master is the only thread that touches the
// resolver; workers only claim ready ids, run them and post them back.
//
// Two channels, both allocated once at run start and allocation-free after:
//
//   ready      master -> workers. The master is the only producer: it
//              writes the slot, then publishes the new tail. Workers (and
//              the master itself at threads=1) claim the oldest unclaimed
//              slot with a CAS on the head, so claims are FIFO. A task is
//              made ready exactly once per run, so `capacity` slots never
//              wrap.
//
//   completed  workers -> master, one single-producer log per worker. A
//              worker writes the finished id and publishes its own tail;
//              the master drains every log. Per-worker logs keep a worker
//              preempted mid-post from holding back anyone else's
//              completions, which a shared fetch_add slot would do. Each
//              log also holds `capacity` ids (a worker can finish at most
//              every task), so a post never waits for the master.
//
// Waiting: a thread with nothing to do spins for kSpinPauses cpu_relax
// rounds, then parks on the park lock (rank LockDomain::kRunQueue) and a
// condition variable. Parked threads are counted; a publisher takes the
// park lock and notifies only when the count is nonzero. The count and the
// published index are both seq_cst, so either the parking thread's
// re-check sees the publication or the publisher sees the parked thread.
// Under a schedule controller the spin collapses to one controlled yield:
// waiting is a scheduling decision there, and parking gets explored.

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

  /// `capacity` bounds the tasks made ready over the handoff's lifetime;
  /// `workers` is the number of completion posters (0 at threads=1).
  TaskHandoff(std::uint64_t capacity, std::uint32_t workers)
      : capacity_(capacity),
        ready_(std::make_unique_for_overwrite<TaskId[]>(capacity)),
        logs_(workers),
        heads_(workers, 0) {
    for (Log& log : logs_) {
      log.slots = std::make_unique_for_overwrite<TaskId[]>(capacity);
    }
  }

  TaskHandoff(const TaskHandoff&) = delete;
  TaskHandoff& operator=(const TaskHandoff&) = delete;

  // --- Master side ----------------------------------------------------------

  /// Publishes `count` ready tasks in order. Master only.
  // NEXUS_HOT_PATH
  void push(const TaskId* ids, std::size_t count) {
    if (count == 0) return;
    if (count > capacity_ - tail_) {
      throw std::logic_error("TaskHandoff: more ready tasks than capacity");
    }
    for (std::size_t i = 0; i < count; ++i) {
      chk::plain_write(&ready_[tail_ + i]);
      ready_[tail_ + i] = ids[i];
    }
    tail_ += count;
    // Seq_cst: publishes the slots (release half, paired with try_claim's
    // acquire) and orders this store before the sleeper load below.
    published_.store(tail_, std::memory_order_seq_cst);
    if (idle_workers_.load(std::memory_order_seq_cst) != 0) {
      wake(work_cv_, count == 1);
    }
  }

  /// Ready tasks published but not yet claimed. Master only.
  [[nodiscard]] std::uint64_t ready_depth() const {
    // Relaxed: a statistic; the master's own tail_ bounds it.
    return tail_ - claimed_.load(std::memory_order_relaxed);
  }

  /// Calls `on_done(id)` for every completion posted so far and returns
  /// how many it consumed. Master only.
  // NEXUS_HOT_PATH
  template <class OnDone>
  std::size_t drain(OnDone&& on_done) {
    std::size_t drained = 0;
    for (std::size_t w = 0; w < logs_.size(); ++w) {
      const Log& log = logs_[w];
      // Acquire: pairs with post()'s publishing store.
      const std::uint64_t tail = log.tail.load(std::memory_order_acquire);
      for (std::uint64_t& head = heads_[w]; head < tail; ++head) {
        chk::plain_read(&log.slots[head]);
        on_done(log.slots[head]);
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
    Log& log = logs_[worker];
    // Relaxed: this thread is the log's only writer.
    const std::uint64_t tail = log.tail.load(std::memory_order_relaxed);
    chk::plain_write(&log.slots[tail]);
    log.slots[tail] = id;
    // Seq_cst: publishes the slot (release half, paired with drain's
    // acquire) and orders this store before the sleeper load below.
    log.tail.store(tail + 1, std::memory_order_seq_cst);
    if (master_parked_.load(std::memory_order_seq_cst) != 0) {
      wake(done_cv_, true);
    }
  }

  // --- Any thread -----------------------------------------------------------

  /// Claims the oldest ready task without waiting; false when none is
  /// published. The master uses it at threads=1, where it runs tasks.
  // NEXUS_HOT_PATH
  bool try_claim(TaskId& id) {
    // Relaxed: the CAS below revalidates the head.
    std::uint64_t head = claimed_.load(std::memory_order_relaxed);
    for (;;) {
      // Acquire: pairs with push()'s store, so the slot write is visible.
      if (head >= published_.load(std::memory_order_acquire)) return false;
      // Relaxed: the CAS only arbitrates ownership of slot `head`; its
      // contents were ordered by the acquire load above.
      if (claimed_.compare_exchange_weak(head, head + 1,
                                         std::memory_order_relaxed)) {
        break;
      }
    }
    chk::plain_read(&ready_[head]);
    id = ready_[head];
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
  /// One worker's completion log. Aligned so each tail sits on its own
  /// cache line: workers post concurrently and the master polls them all.
  struct alignas(64) Log {
    chk::Atomic<std::uint64_t> tail{0};
    std::unique_ptr<TaskId[]> slots;
  };

  [[nodiscard]] bool claimable() const {
    // Seq_cst: the re-check half of the sleeper protocol (see push).
    return claimed_.load(std::memory_order_relaxed) <
           published_.load(std::memory_order_seq_cst);
  }

  [[nodiscard]] bool any_posted() const {
    for (std::size_t w = 0; w < logs_.size(); ++w) {
      // Seq_cst: the re-check half of the sleeper protocol (see post).
      if (logs_[w].tail.load(std::memory_order_seq_cst) != heads_[w]) {
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

  const std::uint64_t capacity_;
  std::unique_ptr<TaskId[]> ready_;
  std::uint64_t tail_ = 0;  ///< master-owned copy of published_
  alignas(64) chk::Atomic<std::uint64_t> published_{0};
  alignas(64) chk::Atomic<std::uint64_t> claimed_{0};
  std::vector<Log> logs_;
  std::vector<std::uint64_t> heads_;  ///< master-owned drain cursors
  alignas(64) chk::Atomic<std::uint32_t> idle_workers_{0};
  chk::Atomic<std::uint32_t> master_parked_{0};
  chk::Atomic<bool> closed_{false};
  chk::Mutex park_mu_;
  chk::CondVar work_cv_;  ///< workers waiting for a ready task
  chk::CondVar done_cv_;  ///< the master waiting for a completion
};

}  // namespace nexuspp::exec
