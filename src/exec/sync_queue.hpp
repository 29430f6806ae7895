#pragma once
// DelegationQueue: the per-shard flat-combining request channel of the
// lock-free resolver backend (exec/sharded_resolver, sync=lockfree).
//
// Threads that need a shard mutation publish a SyncRequest into a bounded
// Vyukov-style MPMC ring and then either *become the combiner* — grab the
// combiner flag and drain every published request in FIFO order — or
// spin-wait (with escalating backoff) on their own request's `done` flag.
// Under contention one cache-line handoff therefore moves a whole batch of
// requests through the shard, where a mutex would convoy the same threads
// one context switch at a time. This is the delegation/combining pattern
// of Álvarez et al. 2021 ("Advanced Synchronization Techniques for
// Task-based Runtime Systems"), which is itself the software analogue of
// the Nexus++ hardware's pipelined dependence-lookup FIFOs.
//
// The combiner flag serializes all handler execution: handlers may mutate
// plain (non-atomic) shard state. The release/acquire pair on the flag
// orders one combiner's writes before the next combiner's reads, and the
// per-request `done` release/acquire pair publishes handler-written result
// fields back to the requester.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>

#include "chk/chk.hpp"
#include "exec/spin.hpp"  // cpu_relax

namespace nexuspp::exec {

/// Escalating wait: brief pause bursts, then scheduler yields, then short
/// sleeps. The yield/sleep stages are load-bearing on oversubscribed hosts
/// (CI containers, single-core boxes): a pure spin would burn the very
/// timeslice the combiner needs to finish the work being waited on.
class Backoff {
 public:
  void pause() {
    // Under a schedule controller, waiting is a scheduling decision, not
    // a wall-clock one: yield to the controller instead of spinning.
    if (chk::spin_yield()) return;
    if (round_ < kPauseRounds) {
      for (unsigned i = 0; i < (1u << round_); ++i) cpu_relax();
    } else if (round_ < kPauseRounds + kYieldRounds) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++round_;
  }

  void reset() noexcept { round_ = 0; }

 private:
  static constexpr unsigned kPauseRounds = 6;
  static constexpr unsigned kYieldRounds = 64;
  unsigned round_ = 0;
};

/// Base class for requests moved through a DelegationQueue. The combiner
/// stores `done` (release) after running the handler on a request; the
/// publisher's acquire load of `done` therefore also sees every result
/// field the handler wrote.
struct SyncRequest {
  chk::Atomic<bool> done{false};
};

class DelegationQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2). The ring only
  /// holds *in-flight* requests — one per thread at most — so a small ring
  /// suffices; a full ring degrades to combining on the publish side, it
  /// never loses requests.
  explicit DelegationQueue(std::size_t capacity_hint = 256);

  DelegationQueue(const DelegationQueue&) = delete;
  DelegationQueue& operator=(const DelegationQueue&) = delete;

  /// Publishes a request (wait-free apart from CAS retries under producer
  /// contention, which are counted). False when the ring is full.
  [[nodiscard]] bool try_publish(SyncRequest* request);

  /// Attempts to become the combiner. On success the caller has exclusive
  /// handler-execution rights until release_combiner().
  [[nodiscard]] bool try_acquire_combiner() {
    return !combiner_.exchange(true, std::memory_order_acq_rel);
  }
  void release_combiner() { combiner_.store(false, std::memory_order_release); }

  /// Drains every published request in FIFO order, invoking
  /// `handler(SyncRequest&)` then setting the request's done flag. Caller
  /// must hold the combiner flag. Returns the batch size. Stops early at a
  /// slot another producer has claimed but not yet published (that request
  /// is picked up by the next drain).
  template <class Fn>
  std::size_t drain(Fn&& handler) {
    std::size_t drained = 0;
    for (;;) {
      const std::uint64_t pos = head_.load(std::memory_order_relaxed);
      Cell& cell = cells_[pos & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq != pos + 1) break;  // empty, or next publisher mid-flight
      chk::plain_read(&cell.request);
      SyncRequest* request = cell.request;
      head_.store(pos + 1, std::memory_order_relaxed);
      cell.seq.store(pos + mask_ + 1, std::memory_order_release);
      handler(*request);
      request->done.store(true, std::memory_order_release);
      ++drained;
    }
    if (drained > 0) record_batch(drained);
    return drained;
  }

  /// The full delegation protocol for one request: publish (combining in
  /// place if the ring is full), then combine-or-wait until the request is
  /// done. On return every handler-written result field is visible.
  template <class Fn>
  void execute(SyncRequest& request, Fn&& handler) {
    request.done.store(false, std::memory_order_relaxed);
    Backoff backoff;
    while (!try_publish(&request)) {
      if (try_acquire_combiner()) {
        drain(handler);
        release_combiner();
      } else {
        backoff.pause();
      }
    }
    backoff.reset();
    while (!request.done.load(std::memory_order_acquire)) {
      if (try_acquire_combiner()) {
        drain(handler);
        release_combiner();
        // Almost always done now; a producer that claimed a slot ahead of
        // ours but has not yet published can still gate us — loop.
        continue;
      }
      backoff.pause();
    }
  }

  struct Stats {
    std::uint64_t cas_retries = 0;        ///< failed publish CASes
    std::uint64_t combined_batches = 0;   ///< nonempty drains
    std::uint64_t combined_requests = 0;  ///< requests across all batches
    std::uint64_t max_combined_batch = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  struct alignas(64) Cell {
    chk::Atomic<std::uint64_t> seq{0};
    SyncRequest* request = nullptr;
  };

  void record_batch(std::size_t drained);

  std::unique_ptr<Cell[]> cells_;
  std::uint64_t mask_ = 0;
  alignas(64) chk::Atomic<std::uint64_t> tail_{0};  ///< next publish slot
  alignas(64) chk::Atomic<std::uint64_t> head_{0};  ///< next drain slot
  alignas(64) chk::Atomic<bool> combiner_{false};
  chk::Atomic<std::uint64_t> cas_retries_{0};
  chk::Atomic<std::uint64_t> combined_batches_{0};
  chk::Atomic<std::uint64_t> combined_requests_{0};
  chk::Atomic<std::uint64_t> max_combined_batch_{0};
};

}  // namespace nexuspp::exec
