#pragma once
// chk: the schedule-exploration / race-checking instrumentation seam
// (layer 5 of docs/CORRECTNESS.md).
//
// Every synchronization operation the lock-free resolver layer performs —
// atomic load/store/RMW/CAS, mutex acquire/release, condition-variable
// wait/notify, epoch pin/unpin — goes through the thin wrappers below
// instead of the raw std primitives (enforced by the
// `chk-instrumented-sync` lint rule over src/exec). The wrappers are the
// *only* coupling between production code and the checking runtime:
//
//   NEXUSPP_SCHEDCHECK off (default) — chk::Atomic<T> IS std::atomic<T>
//   (a type alias, not a wrapper), chk::Mutex IS std::mutex, and every
//   free-function hook is an empty inline. Zero cost by construction;
//   schedcheck_test pins this with static_asserts in its OFF branch.
//
//   NEXUSPP_SCHEDCHECK on — each operation becomes a *scheduling point*
//   (chk::detail::point): when a ScheduleController is installed, the
//   calling thread blocks until the controller's policy (seeded random
//   walk or PCT priorities) grants it the single run token, making every
//   interleaving of instrumented operations reproducible from a seed.
//   When a RaceChecker is installed, each operation also feeds a
//   vector-clock happens-before + lockset analysis that reports *exact*
//   racing pairs (op, source location, thread, clock) — see
//   race_checker.hpp. Both are optional and independent; with neither
//   installed the hooks reduce to two relaxed loads.
//
// The hooks capture std::source_location at the call site (default
// argument), so race reports point at the operation in executor.cpp /
// sharded_resolver.cpp, not at this header.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace nexuspp::chk {

/// Maximum concurrently live instrumented threads (vector-clock width).
/// Slots of exited threads are recycled; exceeding the bound aborts with
/// a diagnostic rather than silently dropping coverage.
inline constexpr std::uint32_t kMaxThreads = 32;

/// Operation taxonomy shared by the controller trace and race reports.
enum class OpKind : std::uint8_t {
  kAtomicLoad,
  kAtomicStore,
  kAtomicRmw,   ///< exchange / fetch_add / fetch_sub
  kAtomicCas,   ///< compare_exchange_{weak,strong}
  kMutexLock,   ///< lock or try_lock attempt
  kMutexUnlock,
  kCondWait,
  kCondNotify,
  kPlainRead,   ///< annotated non-atomic read (protocol-protected data)
  kPlainWrite,  ///< annotated non-atomic write
  kEpochPin,    ///< EpochDomain::Guard construction
  kEpochUnpin,
  kReclaim,     ///< epoch reclamation freeing an object
  kYield,       ///< cooperative backoff / blocked wait
};

[[nodiscard]] const char* to_string(OpKind kind) noexcept;

}  // namespace nexuspp::chk

#if defined(NEXUSPP_SCHEDCHECK)

#include <source_location>
#include <type_traits>

namespace nexuspp::chk {

namespace detail {

// Out-of-line hook entry points (session.cpp). Each early-returns on two
// relaxed loads when no controller / checker is installed.

/// True when a controller is installed AND this thread is registered with
/// it (only registered threads are serialized; others pass through).
[[nodiscard]] bool engaged() noexcept;

/// The scheduling gate: trace the operation, block until granted.
void point(OpKind op, const void* addr, const std::source_location& loc);

/// The scheduling gate for destructor contexts: identical to point(),
/// but swallows the controller's abort signal instead of letting it
/// escape. std::lock_guard / std::unique_lock call Mutex::unlock from
/// their destructors — including while a ScheduleAbort is already
/// unwinding the thread, where a second throw would std::terminate.
void point_nothrow(OpKind op, const void* addr,
                   const std::source_location& loc) noexcept;

/// Mark this thread blocked until another thread performs a write-class
/// operation (store / RMW / successful CAS / unlock / notify).
void yield_blocked();

// Race-checker notifications (no-ops when no checker is installed).
void acquire_edge(const void* addr, const std::source_location& loc);
void release_edge(const void* addr, const std::source_location& loc);
void mutex_acquired(const void* mutex, const std::source_location& loc);
void mutex_released(const void* mutex, const std::source_location& loc);
void plain_access(const void* addr, bool is_write,
                  const std::source_location& loc);
void reclaim(const void* base, std::size_t len,
             const std::source_location& loc);
void fork_capture(std::uint64_t* clock_out);
void fork_adopt(const std::uint64_t* clock_in);

// Thread-local abort-shield depth (see AbortShield below).
void push_abort_shield() noexcept;
void pop_abort_shield() noexcept;

[[nodiscard]] inline bool is_acquire(std::memory_order mo) noexcept {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst || mo == std::memory_order_consume;
}
[[nodiscard]] inline bool is_release(std::memory_order mo) noexcept {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

}  // namespace detail

/// Instrumented drop-in for std::atomic<T>. Same operation set the repo
/// uses (the atomic-order lint rule keeps every call's memory order
/// explicit); each operation is a scheduling point and, when a checker is
/// installed, a happens-before edge per its memory order. The release
/// half of an edge is published *before* the hardware operation and the
/// acquire half joined *after*, so checker order is consistent with real
/// order even when no controller serializes the threads (see
/// race_checker.hpp on the over-approximation this implies).
template <class T>
class Atomic {
 public:
  Atomic() noexcept = default;
  constexpr Atomic(T value) noexcept : a_(value) {}
  Atomic(const Atomic&) = delete;
  Atomic& operator=(const Atomic&) = delete;

  T load(std::memory_order mo,
         std::source_location loc = std::source_location::current()) const {
    detail::point(OpKind::kAtomicLoad, this, loc);
    T value = a_.load(mo);
    if (detail::is_acquire(mo)) detail::acquire_edge(this, loc);
    return value;
  }

  void store(T value, std::memory_order mo,
             std::source_location loc = std::source_location::current()) {
    detail::point(OpKind::kAtomicStore, this, loc);
    if (detail::is_release(mo)) detail::release_edge(this, loc);
    a_.store(value, mo);
  }

  T exchange(T value, std::memory_order mo,
             std::source_location loc = std::source_location::current()) {
    detail::point(OpKind::kAtomicRmw, this, loc);
    if (detail::is_release(mo)) detail::release_edge(this, loc);
    T previous = a_.exchange(value, mo);
    if (detail::is_acquire(mo)) detail::acquire_edge(this, loc);
    return previous;
  }

  template <class U = T, class = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T arg, std::memory_order mo,
              std::source_location loc = std::source_location::current()) {
    detail::point(OpKind::kAtomicRmw, this, loc);
    if (detail::is_release(mo)) detail::release_edge(this, loc);
    T previous = a_.fetch_add(arg, mo);
    if (detail::is_acquire(mo)) detail::acquire_edge(this, loc);
    return previous;
  }

  template <class U = T, class = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T arg, std::memory_order mo,
              std::source_location loc = std::source_location::current()) {
    detail::point(OpKind::kAtomicRmw, this, loc);
    if (detail::is_release(mo)) detail::release_edge(this, loc);
    T previous = a_.fetch_sub(arg, mo);
    if (detail::is_acquire(mo)) detail::acquire_edge(this, loc);
    return previous;
  }

  bool compare_exchange_weak(
      T& expected, T desired, std::memory_order mo,
      std::source_location loc = std::source_location::current()) {
    return cas(expected, desired, mo, fail_order(mo), true, loc);
  }
  bool compare_exchange_weak(
      T& expected, T desired, std::memory_order success,
      std::memory_order failure,
      std::source_location loc = std::source_location::current()) {
    return cas(expected, desired, success, failure, true, loc);
  }
  bool compare_exchange_strong(
      T& expected, T desired, std::memory_order mo,
      std::source_location loc = std::source_location::current()) {
    return cas(expected, desired, mo, fail_order(mo), false, loc);
  }
  bool compare_exchange_strong(
      T& expected, T desired, std::memory_order success,
      std::memory_order failure,
      std::source_location loc = std::source_location::current()) {
    return cas(expected, desired, success, failure, false, loc);
  }

 private:
  [[nodiscard]] static std::memory_order fail_order(
      std::memory_order mo) noexcept {
    // The defaulted failure order per [atomics.types.operations]: the
    // success order with its release part removed.
    switch (mo) {
      case std::memory_order_acq_rel:
        return std::memory_order_acquire;
      case std::memory_order_release:
        return std::memory_order_relaxed;
      default:
        return mo;
    }
  }

  bool cas(T& expected, T desired, std::memory_order success,
           std::memory_order failure, bool weak,
           const std::source_location& loc) {
    detail::point(OpKind::kAtomicCas, this, loc);
    // Publishing the release half before a CAS that may fail
    // over-approximates happens-before (edges that never happened); that
    // direction can only hide races, never invent them.
    if (detail::is_release(success)) detail::release_edge(this, loc);
    const bool won =
        weak ? a_.compare_exchange_weak(expected, desired, success, failure)
             : a_.compare_exchange_strong(expected, desired, success, failure);
    if (detail::is_acquire(won ? success : failure)) {
      detail::acquire_edge(this, loc);
    }
    return won;
  }

  std::atomic<T> a_;
};

/// Instrumented drop-in for std::mutex (works under std::unique_lock /
/// std::lock_guard). Under a controller, lock() never blocks in the OS:
/// it spins try_lock at scheduling points and yields the run token while
/// the holder is descheduled — the holder is guaranteed to be runnable.
class Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(std::source_location loc = std::source_location::current()) {
    if (detail::engaged()) {
      for (;;) {
        detail::point(OpKind::kMutexLock, this, loc);
        if (raw_.try_lock()) break;
        detail::yield_blocked();
      }
    } else {
      detail::point(OpKind::kMutexLock, this, loc);
      raw_.lock();
    }
    detail::mutex_acquired(this, loc);
  }

  bool try_lock(std::source_location loc = std::source_location::current()) {
    detail::point(OpKind::kMutexLock, this, loc);
    if (!raw_.try_lock()) return false;
    detail::mutex_acquired(this, loc);
    return true;
  }

  void unlock(std::source_location loc = std::source_location::current()) {
    // Reached from lock_guard/unique_lock destructors, so the scheduling
    // point must not let a ScheduleAbort escape mid-unwind.
    detail::point_nothrow(OpKind::kMutexUnlock, this, loc);
    detail::mutex_released(this, loc);
    raw_.unlock();
  }

 private:
  std::mutex raw_;
};

/// Instrumented condition variable over chk::Mutex. Uncontrolled it is a
/// std::condition_variable_any whose internal unlock/relock run through
/// the instrumented Mutex (so the happens-before edges of the wait are
/// visible to the checker). Under a controller a wait is "release the
/// lock, stay blocked until a notify on this variable is issued after the
/// wait began, reacquire": a write elsewhere does not wake it, so a
/// missing notify (a lost wake-up) leaves the waiter blocked and the
/// schedule ends as a diagnosed deadlock. Every notify wakes every waiter
/// (notify_one is modelled as notify_all, which real implementations may
/// also do), and callers re-check their predicate as usual.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one(
      std::source_location loc = std::source_location::current()) {
    note_notify(loc);
    cv_.notify_one();
  }

  void notify_all(
      std::source_location loc = std::source_location::current()) {
    note_notify(loc);
    cv_.notify_all();
  }

  template <class Predicate>
  void wait(std::unique_lock<Mutex>& lock, Predicate pred,
            std::source_location loc = std::source_location::current()) {
    while (!pred()) {
      if (detail::engaged()) {
        // The point opens the window between the predicate check and the
        // block, where a notify that does not take the lock is lost. The
        // count is read under the lock, so a notifier holding the lock
        // bumps it after this read.
        detail::point(OpKind::kCondWait, this, loc);
        const std::uint64_t seen = notifies_.load(std::memory_order_relaxed);
        lock.unlock();
        while (notifies_.load(std::memory_order_relaxed) == seen) {
          detail::yield_blocked();
        }
        lock.lock();
      } else {
        cv_.wait(lock);
      }
    }
  }

 private:
  void note_notify(const std::source_location& loc) {
    // Counted before the scheduling point: the point's write-class
    // progress is what unblocks a controlled waiter, which must then see
    // the new count.
    notifies_.fetch_add(1, std::memory_order_relaxed);
    detail::point(OpKind::kCondNotify, this, loc);
  }

  std::condition_variable_any cv_;
  /// Notifies issued so far (controller bookkeeping, not instrumented).
  std::atomic<std::uint64_t> notifies_{0};
};

/// Happens-before plumbing for thread creation/join, so checker-visible
/// edges exist where the OS provides real ones. Construct on the parent
/// before spawning; call child_begin() first and child_end() last inside
/// the thread function; call parent_join() after thread::join().
class ThreadLink {
 public:
  ThreadLink() { detail::fork_capture(born_); }
  void child_begin() const { detail::fork_adopt(born_); }
  void child_end() { detail::fork_capture(died_); }
  void parent_join() const { detail::fork_adopt(died_); }

 private:
  std::uint64_t born_[kMaxThreads] = {};
  std::uint64_t died_[kMaxThreads] = {};
};

/// Annotates a protocol-protected *non-atomic* access: data the design
/// serializes via a mutex, the combiner flag, or the epoch protocol
/// rather than via atomics (shard state, task-node local-id slots, the
/// delegation ring's request pointers). These are the accesses the
/// happens-before checker actually races-checks.
inline void plain_read(const void* addr,
                       std::source_location loc =
                           std::source_location::current()) {
  detail::point(OpKind::kPlainRead, addr, loc);
  detail::plain_access(addr, false, loc);
}

inline void plain_write(const void* addr,
                        std::source_location loc =
                            std::source_location::current()) {
  detail::point(OpKind::kPlainWrite, addr, loc);
  detail::plain_access(addr, true, loc);
}

/// Call before freeing epoch-reclaimed memory: verifies every recorded
/// access to [base, base+len) happens-before the reclaiming thread (a
/// violation is a use-after-reclaim — the epoch protocol failed), then
/// retires the shadow state so a reused address cannot alias old history.
inline void reclaim_check(const void* base, std::size_t len,
                          std::source_location loc =
                              std::source_location::current()) {
  detail::point(OpKind::kReclaim, base, loc);
  detail::reclaim(base, len, loc);
}

/// Scheduling-only note (no happens-before effect): epoch pin/unpin and
/// similar protocol landmarks worth a preemption opportunity + trace row.
inline void sync_note(OpKind op, const void* addr,
                      std::source_location loc =
                          std::source_location::current()) {
  detail::point(op, addr, loc);
}

/// RAII scope in which scheduling points swallow the controller's abort
/// instead of throwing ScheduleAbort. Required around instrumented
/// operations reached from destructors — implicitly noexcept, so a
/// thrown abort would std::terminate (EpochDomain::Guard unpinning is
/// the canonical site). The operations themselves still execute; the
/// thread keeps cleaning up and exits the schedule at its next
/// unshielded point or by finishing.
class AbortShield {
 public:
  AbortShield() noexcept { detail::push_abort_shield(); }
  ~AbortShield() { detail::pop_abort_shield(); }
  AbortShield(const AbortShield&) = delete;
  AbortShield& operator=(const AbortShield&) = delete;
};

/// Cooperative replacement for one Backoff::pause round. Returns true
/// when a controller absorbed the wait (the caller should skip its
/// spin/yield/sleep — wall-clock waits would desynchronize replay).
inline bool spin_yield(std::source_location loc =
                           std::source_location::current()) {
  if (!detail::engaged()) return false;
  detail::point(OpKind::kYield, nullptr, loc);
  detail::yield_blocked();
  return true;
}

/// No controller-assigned id for the calling thread.
inline constexpr std::uint32_t kNoScheduleThread = ~0u;

/// The controller-assigned thread id, or kNoScheduleThread. Replaces
/// run-to-run-unstable identities (std::thread::id hashes) in anything
/// that influences control flow, so replays stay bit-faithful.
[[nodiscard]] std::uint32_t schedule_thread_id() noexcept;

/// Compiled-in fault toggles for the schedcheck harness. Each fault
/// reintroduces a fixed historical bug so the explorer can prove it
/// would have caught it (and so seed replay has a stable target).
struct Faults {
  /// PR 6's publication race: the per-group local-id cursor written
  /// *after* the shard critical section instead of inside it, so a
  /// concurrent finish can grant a task before its local id is visible.
  [[nodiscard]] static bool publish_local_id_late() noexcept;
  static void set_publish_local_id_late(bool on) noexcept;
};

}  // namespace nexuspp::chk

#else  // !NEXUSPP_SCHEDCHECK — aliases and empty inlines; zero cost.

namespace nexuspp::chk {

template <class T>
using Atomic = std::atomic<T>;
using Mutex = std::mutex;
using CondVar = std::condition_variable;

class ThreadLink {
 public:
  void child_begin() const noexcept {}
  void child_end() noexcept {}
  void parent_join() const noexcept {}
};

inline void plain_read(const void*) noexcept {}
inline void plain_write(const void*) noexcept {}
inline void reclaim_check(const void*, std::size_t) noexcept {}
inline void sync_note(OpKind, const void*) noexcept {}
inline bool spin_yield() noexcept { return false; }

class AbortShield {
 public:
  // User-provided (not defaulted) so an unused shield local does not
  // trip -Wunused-variable; still compiles to nothing.
  AbortShield() noexcept {}
  AbortShield(const AbortShield&) = delete;
  AbortShield& operator=(const AbortShield&) = delete;
};

inline constexpr std::uint32_t kNoScheduleThread = ~0u;
[[nodiscard]] inline constexpr std::uint32_t schedule_thread_id() noexcept {
  return kNoScheduleThread;
}

struct Faults {
  [[nodiscard]] static constexpr bool publish_local_id_late() noexcept {
    return false;
  }
};

}  // namespace nexuspp::chk

#endif  // NEXUSPP_SCHEDCHECK
