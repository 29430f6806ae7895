#include "exec/spin.hpp"

#include <chrono>

#include "chk/chk.hpp"

namespace nexuspp::exec {

namespace {

using Clock = std::chrono::steady_clock;

/// Dependent multiply-add chain the optimizer cannot collapse (the result
/// is published to a volatile sink by the caller).
std::uint64_t spin_batch(std::uint64_t iters, std::uint64_t seed) noexcept {
  std::uint64_t x = seed | 1u;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  return x;
}

chk::Atomic<std::uint64_t> g_sink{0};

std::uint64_t measure_iters_per_us() {
  // Warm up (first-touch, frequency ramp), then time a growing batch until
  // the measurement window is comfortably above clock granularity.
  g_sink.fetch_add(spin_batch(10'000, 1), std::memory_order_relaxed);
  std::uint64_t iters = 100'000;
  for (int attempt = 0; attempt < 10; ++attempt) {
    const auto t0 = Clock::now();
    g_sink.fetch_add(spin_batch(iters, iters), std::memory_order_relaxed);
    const auto elapsed_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    if (elapsed_ns >= 1'000'000) {  // >= 1 ms window: good enough
      return iters * 1'000 / elapsed_ns;
    }
    // Size the next attempt from this one's rate to about 1.2 ms, so the
    // window is reached in one more step instead of up to 4 ms of x4
    // growth; a batch too short to time grows x4.
    iters = elapsed_ns < 10'000 ? iters * 4
                                : iters * 1'200'000 / elapsed_ns + 1;
  }
  return 1'000;  // pessimistic fallback: 1 iteration per ns
}

}  // namespace

std::uint64_t spin_iters_per_us() {
  static const std::uint64_t value = measure_iters_per_us();
  return value;
}

void spin_for_ns(std::uint64_t ns) {
  if (ns == 0) return;
  const auto deadline = Clock::now() + std::chrono::nanoseconds(ns);
  // ~1/16 us between clock reads, at least a handful of iterations.
  const std::uint64_t batch = spin_iters_per_us() / 16 + 8;
  std::uint64_t local = 0;
  while (Clock::now() < deadline) {
    local += spin_batch(batch, local + ns);
  }
  g_sink.fetch_add(local, std::memory_order_relaxed);
}

}  // namespace nexuspp::exec
