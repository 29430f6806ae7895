#pragma once
// Streaming statistics: the per-task turnaround every engine records
// (RunReport::turnaround_ns and its turnaround_* columns).

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace nexuspp::util {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Numerically stable for the long (multi-million sample) runs produced by
/// the Gaussian-elimination workloads.
///
/// Also maintains a fixed-size deterministic reservoir sample (Vitter's
/// Algorithm R with a counter-seeded splitmix64 generator) so latency
/// percentiles stay available at O(1) memory: exact while the sample count
/// fits the reservoir, an unbiased estimate beyond it. Two accumulators fed
/// the same values in the same order produce identical percentiles.
class RunningStats {
 public:
  /// Reservoir size: exact percentiles up to this many samples.
  static constexpr std::size_t kReservoirCapacity = 4096;

  /// Not noexcept: growing the percentile reservoir can allocate, unless
  /// reserve() ran first.
  void add(double x);

  /// Allocates the whole percentile reservoir now, so add() never does:
  /// for accumulators fed on paths that must not allocate.
  void reserve() { reservoir_.reserve(kReservoirCapacity); }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Quantile estimate over the reservoir (linear interpolation between
  /// order statistics). `q` is clamped to [0, 1]; 0 samples -> 0.0.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p95() const { return percentile(0.95); }
  [[nodiscard]] double p99() const { return percentile(0.99); }

  /// Merges another accumulator into this one (parallel reduction).
  /// Moments merge exactly; reservoirs combine with slots weighted by each
  /// side's true sample count (exact while all samples fit, a
  /// deterministic estimate beyond).
  void merge(const RunningStats& other);

  void reset() noexcept { *this = RunningStats{}; }

  /// Exact state equality (moments and reservoir). Two accumulators fed
  /// the same values in the same order always compare equal — used by the
  /// replay bit-identity tests on RunReport.
  [[nodiscard]] friend bool operator==(const RunningStats&,
                                       const RunningStats&) = default;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<double> reservoir_;
};

}  // namespace nexuspp::util
