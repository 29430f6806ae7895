#include "chk/session.hpp"

#if defined(NEXUSPP_SCHEDCHECK)

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "util/invariant.hpp"

namespace nexuspp::chk {
namespace {

std::atomic<ScheduleController*> g_controller{nullptr};
std::atomic<RaceChecker*> g_checker{nullptr};
RaceChecker* g_env_checker = nullptr;  // written once before main()

// Thread-id registry. Checker thread ids index fixed-width vector
// clocks, so ids of exited threads are recycled; installing a checker
// bumps the epoch, invalidating every cached id at once. The registry is
// a leaked singleton so thread_local destructors running at process
// teardown can still reach it safely.
struct TidRegistry {
  std::mutex mu;  // also serializes every checker dispatch
  std::uint64_t epoch = 1;
  std::uint32_t next = 0;
  std::vector<std::uint32_t> free_list;
};

TidRegistry& registry() {
  static TidRegistry* instance = new TidRegistry;
  return *instance;
}

struct TlsTid {
  std::uint64_t epoch = 0;
  std::uint32_t tid = 0;
  ~TlsTid() {
    // Recycle this thread's slot. The new occupant inherits the slot's
    // clock history — sound whenever the new thread was really created
    // after this one exited (the normal join-then-spawn lifecycle).
    TidRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    if (epoch == reg.epoch) reg.free_list.push_back(tid);
  }
};

thread_local TlsTid tls_tid;

/// Caller holds registry().mu.
std::uint32_t current_tid_locked(TidRegistry& reg) {
  if (tls_tid.epoch != reg.epoch) {
    std::uint32_t tid;
    if (!reg.free_list.empty()) {
      tid = reg.free_list.back();
      reg.free_list.pop_back();
    } else if (reg.next < kMaxThreads) {
      tid = reg.next++;
    } else {
      std::fprintf(stderr,
                   "nexuspp-schedcheck: more than %u live instrumented "
                   "threads; raise chk::kMaxThreads\n",
                   kMaxThreads);
      std::abort();
    }
    tls_tid.epoch = reg.epoch;
    tls_tid.tid = tid;
  }
  return tls_tid.tid;
}

/// Runs `fn(checker, tid)` under the session lock, or not at all when no
/// checker is installed. The shadow state allocates, and hooks fire
/// inside NoAllocScope-guarded hot paths in checked builds, hence the
/// audited allow. May propagate RaceDetected (throw-mode plain checks).
template <class Fn>
void with_checker(Fn&& fn) {
  RaceChecker* checker = g_checker.load(std::memory_order_acquire);
  if (checker == nullptr) return;
  util::AllowAllocScope allow_shadow("schedcheck shadow state");
  TidRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  util::LockRankGuard rank(util::LockDomain::kChk);
  fn(*checker, current_tid_locked(reg));
}

// Before-main autoinstall: NEXUSPP_SCHEDCHECK_RACES=1 (or any value but
// "0") puts the whole process under a halt-mode checker.
struct EnvAutoInstall {
  EnvAutoInstall() {
    const char* value = std::getenv("NEXUSPP_SCHEDCHECK_RACES");
    if (value == nullptr || *value == '\0' || std::strcmp(value, "0") == 0) {
      return;
    }
    g_env_checker = new RaceChecker(RaceChecker::Mode::kHalt);  // leaked
    g_checker.store(g_env_checker, std::memory_order_release);
  }
};
EnvAutoInstall g_env_autoinstall;

std::atomic<bool> g_fault_publish_early{false};
std::atomic<bool> g_fault_read_after_claim{false};
std::atomic<bool> g_fault_stamp_early{false};

}  // namespace

void install_controller(ScheduleController* controller) {
  g_controller.store(controller, std::memory_order_release);
}

void install_checker(RaceChecker* checker) {
  TidRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  ++reg.epoch;
  reg.next = 0;
  reg.free_list.clear();
  g_checker.store(checker != nullptr ? checker : g_env_checker,
                  std::memory_order_release);
}

RaceChecker* installed_checker() noexcept {
  return g_checker.load(std::memory_order_acquire);
}

std::uint32_t schedule_thread_id() noexcept {
  // kNoTid and kNoScheduleThread are both ~0u, so an unregistered thread
  // reports "no id" without consulting the controller pointer.
  return ScheduleController::this_thread_tid();
}

bool Faults::publish_ready_tail_early() noexcept {
  return g_fault_publish_early.load(std::memory_order_relaxed);
}

void Faults::set_publish_ready_tail_early(bool on) noexcept {
  g_fault_publish_early.store(on, std::memory_order_relaxed);
}

bool Faults::read_ready_slot_after_claim() noexcept {
  return g_fault_read_after_claim.load(std::memory_order_relaxed);
}

void Faults::set_read_ready_slot_after_claim(bool on) noexcept {
  g_fault_read_after_claim.store(on, std::memory_order_relaxed);
}

bool Faults::publish_completion_stamp_early() noexcept {
  return g_fault_stamp_early.load(std::memory_order_relaxed);
}

void Faults::set_publish_completion_stamp_early(bool on) noexcept {
  g_fault_stamp_early.store(on, std::memory_order_relaxed);
}

namespace detail {

bool engaged() noexcept {
  return g_controller.load(std::memory_order_acquire) != nullptr &&
         ScheduleController::this_thread_tid() != kNoTid;
}

void point(OpKind op, const void* addr, const std::source_location& loc) {
  ScheduleController* controller =
      g_controller.load(std::memory_order_acquire);
  if (controller != nullptr &&
      ScheduleController::this_thread_tid() != kNoTid) {
    controller->point(op, addr, loc.file_name(), loc.line());
  }
}

void point_nothrow(OpKind op, const void* addr,
                   const std::source_location& loc) noexcept {
  try {
    point(op, addr, loc);
  } catch (const ScheduleAbort&) {
    // Called from destructor context (std::lock_guard / unique_lock
    // unlock while a ScheduleAbort is already unwinding the thread).
    // The controller is tearing the run down; skipping this thread's
    // final scheduling points is exactly what the abort asks for.
  }
}

void yield_blocked() {
  ScheduleController* controller =
      g_controller.load(std::memory_order_acquire);
  if (controller != nullptr &&
      ScheduleController::this_thread_tid() != kNoTid) {
    controller->yield_blocked();
  }
}

void acquire_edge(const void* addr, const std::source_location& loc) {
  with_checker([&](RaceChecker& checker, std::uint32_t tid) {
    checker.on_acquire(tid, addr, OpKind::kAtomicLoad, loc.file_name(),
                       loc.line());
  });
}

void release_edge(const void* addr, const std::source_location& loc) {
  with_checker([&](RaceChecker& checker, std::uint32_t tid) {
    checker.on_release(tid, addr, OpKind::kAtomicStore, loc.file_name(),
                       loc.line());
  });
}

void mutex_acquired(const void* mutex, const std::source_location& loc) {
  with_checker([&](RaceChecker& checker, std::uint32_t tid) {
    checker.on_mutex_acquire(tid, mutex, loc.file_name(), loc.line());
  });
}

void mutex_released(const void* mutex, const std::source_location& loc) {
  with_checker([&](RaceChecker& checker, std::uint32_t tid) {
    checker.on_mutex_release(tid, mutex, loc.file_name(), loc.line());
  });
}

void plain_access(const void* addr, bool is_write,
                  const std::source_location& loc) {
  with_checker([&](RaceChecker& checker, std::uint32_t tid) {
    checker.on_plain(tid, addr, is_write, loc.file_name(), loc.line());
  });
}

void fork_capture(std::uint64_t* clock_out) {
  with_checker([&](RaceChecker& checker, std::uint32_t tid) {
    checker.capture_clock(tid, clock_out);
  });
}

void fork_adopt(const std::uint64_t* clock_in) {
  with_checker([&](RaceChecker& checker, std::uint32_t tid) {
    checker.adopt_clock(tid, clock_in);
  });
}

}  // namespace detail
}  // namespace nexuspp::chk

#else

// Translation unit intentionally empty without NEXUSPP_SCHEDCHECK.
namespace nexuspp::chk {
void session_translation_unit_anchor() {}
}  // namespace nexuspp::chk

#endif  // NEXUSPP_SCHEDCHECK
