#pragma once
// Checked-build invariant layer (second defense layer — see
// docs/CORRECTNESS.md). Compiled to nothing unless NEXUSPP_CHECKED is
// defined (CMake option of the same name), so the hooks below can sit
// directly on hot paths at zero release-build cost.
//
// Two families of run-time invariants, each a discipline the execution
// layer relies on but no compiler checks:
//
//   Lock rank — every mutex the execution layer takes carries a rank
//   (LockDomain). A thread-local tracker asserts that (a) the executor's
//   run-queue (park) lock is never taken recursively, and (b) the
//   schedcheck runtime's internal lock (kChk) is a leaf: instrumentation
//   hooks fire *inside* run-queue critical sections, so kChk may be taken
//   while the park lock is held, but never the reverse and never
//   recursively.
//
//   No-alloc tripwire — NoAllocScope replaces the global operator new
//   family with an aborting hook for the enclosing dynamic extent.
//   MasterResolver::finish wraps itself in one: the release hot path is
//   documented never to allocate, and every *audited* interior allocation
//   (growth of the caller's grant buffer) re-enables allocation through
//   an AllowAllocScope naming its reason. A new allocation sneaking onto
//   the path trips the hook and aborts with the offending scope's label.
//
// All violations funnel into invariant_fail(), which prints one
// "nexuspp-checked: <what> (<where>)" line on stderr and aborts — the
// checked_invariant_test death tests match on that prefix.

#include <cstddef>

namespace nexuspp::util {

/// Lock ranks for the execution layer (the checked rules are listed
/// above).
enum class LockDomain : int {
  kRunQueue = 1,  ///< the executor's run-queue park lock (TaskHandoff)
  kChk = 2,       ///< schedcheck runtime internals (src/chk session state)
};

#if defined(NEXUSPP_CHECKED)

/// Prints "nexuspp-checked: <what> (<where>)" to stderr and aborts.
[[noreturn]] void invariant_fail(const char* what, const char* where);

/// RAII record of one held lock; construct immediately after acquiring,
/// destroy when releasing. Asserts the rank rules on entry.
class LockRankGuard {
 public:
  explicit LockRankGuard(LockDomain domain);
  ~LockRankGuard();
  LockRankGuard(const LockRankGuard&) = delete;
  LockRankGuard& operator=(const LockRankGuard&) = delete;

 private:
  LockDomain domain_;
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

#else  // !NEXUSPP_CHECKED — everything below must optimize to nothing.

class LockRankGuard {
 public:
  explicit LockRankGuard(LockDomain) noexcept {}
};

class NoAllocScope {
 public:
  explicit NoAllocScope(const char*) noexcept {}
};

class AllowAllocScope {
 public:
  explicit AllowAllocScope(const char*) noexcept {}
};

#endif  // NEXUSPP_CHECKED

}  // namespace nexuspp::util
