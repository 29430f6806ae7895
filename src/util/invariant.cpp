// Checked-build invariant layer implementation. The whole translation
// unit is empty unless NEXUSPP_CHECKED is defined; in particular the
// operator-new replacements must not exist in normal builds (replacing
// the global allocator is a program-wide decision the option opts into).

#include "util/invariant.hpp"

#if defined(NEXUSPP_CHECKED)

#include <cstdio>
#include <cstdlib>
#include <new>

namespace nexuspp::util {
namespace {

// Thread-local invariant state. Plain counters — every rule here is
// per-thread by construction, so no synchronization is needed.
thread_local int tl_run_queue_locks = 0;
thread_local int tl_chk_locks = 0;
thread_local int tl_no_alloc_depth = 0;
thread_local int tl_allow_alloc_depth = 0;
thread_local const char* tl_no_alloc_label = nullptr;
// Re-entrancy latch: invariant_fail itself may allocate (fprintf can);
// without this a failing allocation inside the failure path would recurse.
thread_local bool tl_in_failure = false;

int& counter_for(LockDomain domain) {
  return domain == LockDomain::kRunQueue ? tl_run_queue_locks : tl_chk_locks;
}

}  // namespace

void invariant_fail(const char* what, const char* where) {
  tl_in_failure = true;
  std::fprintf(stderr, "nexuspp-checked: %s (%s)\n", what,
               where == nullptr ? "?" : where);
  std::fflush(stderr);
  std::abort();
}

LockRankGuard::LockRankGuard(LockDomain domain) : domain_(domain) {
  if (domain == LockDomain::kRunQueue) {
    if (tl_run_queue_locks > 0) {
      invariant_fail("run-queue lock acquired recursively", "lock-rank");
    }
    if (tl_chk_locks > 0) {
      invariant_fail("run-queue lock acquired while schedcheck lock is held",
                     "lock-rank");
    }
  } else {
    // kChk is a leaf: fine under the run-queue lock, but never recursive
    // (the schedcheck runtime must not hook itself).
    if (tl_chk_locks > 0) {
      invariant_fail("schedcheck lock acquired recursively", "lock-rank");
    }
  }
  ++counter_for(domain);
}

LockRankGuard::~LockRankGuard() { --counter_for(domain_); }

NoAllocScope::NoAllocScope(const char* label)
    : prev_label_(tl_no_alloc_label) {
  ++tl_no_alloc_depth;
  tl_no_alloc_label = label;
}

NoAllocScope::~NoAllocScope() {
  --tl_no_alloc_depth;
  tl_no_alloc_label = prev_label_;
}

AllowAllocScope::AllowAllocScope(const char* /*reason*/) {
  ++tl_allow_alloc_depth;
}

AllowAllocScope::~AllowAllocScope() { --tl_allow_alloc_depth; }

namespace {

void trip_if_forbidden() {
  if (tl_no_alloc_depth > 0 && tl_allow_alloc_depth == 0 && !tl_in_failure) {
    invariant_fail("allocation inside a no-alloc scope",
                   tl_no_alloc_label == nullptr ? "?" : tl_no_alloc_label);
  }
}

void* checked_alloc(std::size_t size) {
  trip_if_forbidden();
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc{};
  return ptr;
}

void* checked_alloc_aligned(std::size_t size, std::align_val_t align) {
  trip_if_forbidden();
  if (size == 0) size = 1;
  void* ptr = nullptr;
  if (posix_memalign(&ptr, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc{};
  }
  return ptr;
}

}  // namespace
}  // namespace nexuspp::util

// Global operator new/delete replacements routing through the tripwire.
// Deletes must pair with the mallocs above, so all four are replaced.
void* operator new(std::size_t size) {
  return nexuspp::util::checked_alloc(size);
}
void* operator new[](std::size_t size) {
  return nexuspp::util::checked_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return nexuspp::util::checked_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return nexuspp::util::checked_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return nexuspp::util::checked_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return nexuspp::util::checked_alloc_aligned(size, align);
}
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}

#endif  // NEXUSPP_CHECKED
