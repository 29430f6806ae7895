#pragma once
// Calibrated synthetic kernels for the threaded execution backend.
//
// Trace records carry per-task execution times; the real executor honors
// them by spinning a worker core for that long — the standard technique of
// task-bench-style runtime harnesses, where the kernel body is pure delay
// and all interesting behaviour lives in the dependency subsystem.
//
// The spin is deadline-based (monotonic clock) so durations are honored to
// clock precision, with a *calibrated batch size* between clock reads: a
// one-time measurement of how many arithmetic iterations this host runs
// per microsecond sizes the batches to ~1/16 us, so short kernels do not
// spend their whole budget in clock_gettime and long kernels do not hammer
// the VDSO. Calibration happens once per process, on first use, and is
// thread-safe.

#include <atomic>
#include <cstdint>

namespace nexuspp::exec {

/// Architectural spin hint (PAUSE/YIELD); compiler barrier elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Busy-spins (never sleeps, never yields) for approximately `ns` wall
/// nanoseconds. ns == 0 returns immediately.
void spin_for_ns(std::uint64_t ns);

/// Iterations of the calibration loop this host runs per microsecond
/// (measured once per process; exposed for reports and tests).
[[nodiscard]] std::uint64_t spin_iters_per_us();

}  // namespace nexuspp::exec
