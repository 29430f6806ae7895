#pragma once
// Real kernel bodies for the threaded execution backend (task-bench's
// kernel-type axis).
//
// The default executor kernel is the calibrated deadline spin of
// exec/spin.hpp: pure delay, no memory traffic, no compute signature.
// That is the right default for dependence-subsystem measurements, but it
// makes every task look the same to the machine — caches, memory
// bandwidth and SMT contention never enter the picture. The KernelKind
// axis replaces the spin with bodies that have a *resource* signature:
//
//   kSpin          — deadline-based calibrated spin (status quo).
//   kComputeBound  — dependent multiply-add chain, calibrated FLOP loop;
//                    duration is converted to a whole number of compute
//                    units, so longer requests always do more work.
//   kMemoryBound   — read-modify-write streaming over a 1 MiB per-worker
//                    buffer, one cache-unfriendly 4 KiB chunk per unit.
//   kLoadImbalance — compute units with a deterministic per-task skew
//                    multiplier, uniform in [1, 4) and drawn from the task
//                    serial: the same trace yields the same imbalance on
//                    every run.
//   kComputeDgemm  — 24 x 24 tile C += A*B matmul per unit, the classic
//                    dense-kernel stand-in.
//
// Durations are honored through a *work-unit model*: a one-time
// calibration measures the wall cost of one unit per kind, and a request
// for N nanoseconds executes max(1, N / unit_ns) units. This is exactly
// task-bench's approach (iterations derived from requested duration), and
// it makes "longer request => at least as many units" structural rather
// than timing-dependent — which is what the kernel tests pin down.
//
// A KernelBody holds per-worker state (stream buffer, matmul tiles) and
// is used from exactly one worker thread; the executor builds one per
// worker before the pool starts. Calibration is process-wide, once per
// kind, and thread-safe (magic statics).

#include <cstdint>
#include <string>
#include <vector>

namespace nexuspp::exec {

enum class KernelKind : std::uint8_t {
  kSpin,
  kComputeBound,
  kMemoryBound,
  kLoadImbalance,
  kComputeDgemm,
};

[[nodiscard]] const char* to_string(KernelKind kind) noexcept;

/// Parses "spin" / "compute" / "memory" / "imbalance" / "dgemm"; throws
/// std::invalid_argument listing the accepted names.
[[nodiscard]] KernelKind kernel_kind_from_string(const std::string& name);

struct KernelConfig {
  KernelKind kind = KernelKind::kSpin;
};

/// Calibrated wall nanoseconds one work unit of `kind` costs on this host
/// (>= 1). kSpin has no unit model and returns 0.
/// Measured once per process per kind, on first use; thread-safe.
[[nodiscard]] std::uint64_t kernel_unit_ns(KernelKind kind);

/// Per-worker kernel execution state. Single-threaded use: one body per
/// worker thread (the executor indexes a pre-built vector by worker id).
class KernelBody {
 public:
  /// Bytes the MEMORY_BOUND kernel touches per work unit.
  static constexpr std::uint32_t kChunkBytes = 4096;
  /// Iterations of the multiply-add chain per compute unit.
  static constexpr std::uint64_t kComputeIters = 4096;

  KernelBody(const KernelConfig& config, std::uint32_t worker_index);

  [[nodiscard]] const KernelConfig& config() const noexcept {
    return config_;
  }

  /// Calibrated ns per work unit for this body's kind (0 for kSpin).
  [[nodiscard]] std::uint64_t unit_ns() const;

  /// Work units a request for `ns` nanoseconds maps to: 0 when ns == 0,
  /// else max(1, ns / unit_ns()). Monotonically non-decreasing in `ns`;
  /// kSpin returns 0 (its duration model is the deadline spin itself).
  [[nodiscard]] std::uint64_t units_for(std::uint64_t ns) const;

  /// Deterministic per-task duration multiplier: uniform in [1, 4) drawn
  /// from the task serial for kLoadImbalance; exactly 1.0 for every other
  /// kind.
  [[nodiscard]] double skew(std::uint64_t serial) const;

  /// Executes the kernel for approximately `ns * skew(serial)` wall
  /// nanoseconds; returns the work units executed (0 for kSpin, which
  /// delegates to spin_for_ns).
  std::uint64_t run(std::uint64_t ns, std::uint64_t serial);

  /// Executes exactly `units` work units of this body's kind (no-op for
  /// kSpin). Exposed for calibration and the kernel-body tests.
  void run_units(std::uint64_t units);

  /// MEMORY_BOUND stream buffer (empty for other kinds): each element
  /// counts the read-modify-write passes that touched it, which is what
  /// the buffer-coverage test asserts on.
  [[nodiscard]] const std::vector<std::uint64_t>& buffer() const noexcept {
    return buffer_;
  }

 private:
  void compute_unit();
  void memory_unit();
  void dgemm_unit();

  KernelConfig config_;
  std::uint64_t acc_ = 0;  ///< compute-chain accumulator (published to sink)
  std::vector<std::uint64_t> buffer_;  ///< kMemoryBound stream target
  std::size_t cursor_ = 0;             ///< next chunk start in buffer_
  std::vector<double> a_, b_, c_;      ///< kComputeDgemm tiles
};

}  // namespace nexuspp::exec
