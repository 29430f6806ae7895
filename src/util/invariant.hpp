#pragma once
// Checked-build invariant layer (second defense layer — see
// docs/CORRECTNESS.md). Compiled to nothing unless NEXUSPP_CHECKED is
// defined (CMake option of the same name), so the hooks below can sit
// directly on hot paths at zero release-build cost.
//
// Three families of run-time invariants, each a discipline the lock-free
// backend (sharded_resolver.cpp) relies on but no compiler checks:
//
//   Lock rank — every mutex the execution layer takes carries a rank
//   (LockDomain). A thread-local tracker asserts that (a) shard mutexes
//   never nest (no thread holds two shard locks — the resolver's
//   one-critical-section-at-a-time design depends on it: cross-shard
//   atomicity is never needed *because* no operation spans two shards),
//   (b) no thread holds a shard mutex and the executor's run-queue
//   (park) mutex at once (either order — the pair is what would make a
//   lock-cycle possible at all), and (c) the schedcheck runtime's
//   internal lock (kChk) is a leaf: instrumentation hooks fire *inside*
//   shard / run-queue critical sections, so kChk may be taken while
//   those are held, but never the reverse and never recursively.
//
//   No-alloc tripwire — NoAllocScope replaces the global operator new
//   family with an aborting hook for the enclosing dynamic extent.
//   ShardedResolver::finish wraps itself in one: the release hot path is
//   documented never to allocate, and every *audited* interior allocation
//   (grant-buffer growth, combiner work and snapshots, epoch limbo nodes)
//   re-enables allocation through an AllowAllocScope naming its reason.
//   A new allocation sneaking onto the path trips the hook and aborts
//   with the offending scope's label.
//
//   Epoch guard — dereferencing a combiner-published snapshot or a
//   grant-overflow block is only safe under an active EpochDomain guard
//   (pin). Readers assert_epoch_guard() at the deref; Guard's ctor/dtor
//   report pin/unpin through epoch_guard_acquired/released.
//
// All violations funnel into invariant_fail(), which prints one
// "nexuspp-checked: <what> (<where>)" line on stderr and aborts — the
// checked_invariant_test death tests match on that prefix.

#include <cstddef>

namespace nexuspp::util {

/// Lock ranks for the execution layer. Values are informational (the
/// checked rules are "no two held" per the matrix above), but keep shard
/// lowest so a future ordered-rank rule can drop in without re-ranking.
enum class LockDomain : int {
  kShard = 0,     ///< a ShardedResolver shard mutex
  kRunQueue = 1,  ///< the executor's run-queue park lock (TaskHandoff)
  kChk = 2,       ///< schedcheck runtime internals (src/chk session state)
};

#if defined(NEXUSPP_CHECKED)

/// Prints "nexuspp-checked: <what> (<where>)" to stderr and aborts.
[[noreturn]] void invariant_fail(const char* what, const char* where);

/// RAII record of one held lock; construct immediately after acquiring,
/// destroy when releasing (member order next to the std::unique_lock it
/// shadows takes care of both). Asserts the no-two-locks rules on entry.
class LockRankGuard {
 public:
  explicit LockRankGuard(LockDomain domain);
  ~LockRankGuard();
  LockRankGuard(const LockRankGuard&) = delete;
  LockRankGuard& operator=(const LockRankGuard&) = delete;
  LockRankGuard(LockRankGuard&& other) noexcept;
  LockRankGuard& operator=(LockRankGuard&&) = delete;

 private:
  LockDomain domain_;
  bool engaged_ = true;
};

/// While alive, any allocation through global operator new on this thread
/// aborts (unless an AllowAllocScope is also alive). Nestable.
class NoAllocScope {
 public:
  explicit NoAllocScope(const char* label);
  ~NoAllocScope();
  NoAllocScope(const NoAllocScope&) = delete;
  NoAllocScope& operator=(const NoAllocScope&) = delete;

 private:
  const char* prev_label_;
};

/// Audited hole in an enclosing NoAllocScope; `reason` documents why the
/// allocation is acceptable (it is printed nowhere on success — the point
/// is the reviewer reading the call site). Nestable.
class AllowAllocScope {
 public:
  explicit AllowAllocScope(const char* reason);
  ~AllowAllocScope();
  AllowAllocScope(const AllowAllocScope&) = delete;
  AllowAllocScope& operator=(const AllowAllocScope&) = delete;
};

/// EpochDomain::Guard reports pin/unpin through these.
void epoch_guard_acquired();
void epoch_guard_released();

/// Call at every deref of epoch-protected memory (combiner snapshot,
/// grant-overflow block): aborts unless this thread holds an epoch pin.
void assert_epoch_guard(const char* where);

#else  // !NEXUSPP_CHECKED — everything below must optimize to nothing.

class LockRankGuard {
 public:
  explicit LockRankGuard(LockDomain) noexcept {}
  LockRankGuard(LockRankGuard&&) noexcept = default;
};

class NoAllocScope {
 public:
  explicit NoAllocScope(const char*) noexcept {}
};

class AllowAllocScope {
 public:
  explicit AllowAllocScope(const char*) noexcept {}
};

inline void epoch_guard_acquired() noexcept {}
inline void epoch_guard_released() noexcept {}
inline void assert_epoch_guard(const char*) noexcept {}

#endif  // NEXUSPP_CHECKED

}  // namespace nexuspp::util
