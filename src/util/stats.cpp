#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace nexuspp::util {

namespace {

/// Counter-keyed splitmix64: the i-th sample always draws the same value,
/// which keeps reservoir sampling fully deterministic across runs.
std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e37'79b9'7f4a'7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebull;
  return x ^ (x >> 31);
}

}  // namespace

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  if (reservoir_.size() < kReservoirCapacity) {
    reservoir_.push_back(x);
  } else {
    // Algorithm R: sample n_-1 (0-based index of this addition) replaces a
    // random slot with probability capacity / n_.
    const std::uint64_t j = splitmix64(n_ - 1) % n_;
    if (j < kReservoirCapacity) reservoir_[j] = x;
  }
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::percentile(double q) const {
  if (reservoir_.empty()) return 0.0;
  // Interpolates between the two order statistics around q; selecting them
  // costs linear time, where sorting the reservoir would not.
  std::vector<double> values(reservoir_);
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto at = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), at, values.end());
  const double low = *at;
  const double high =
      lo + 1 < values.size() ? *std::min_element(at + 1, values.end()) : low;
  return low + (pos - static_cast<double>(lo)) * (high - low);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ = (na * mean_ + nb * other.mean_) / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  if (reservoir_.size() + other.reservoir_.size() <= kReservoirCapacity) {
    // Both reservoirs still hold every sample: concatenation stays exact.
    reservoir_.insert(reservoir_.end(), other.reservoir_.begin(),
                      other.reservoir_.end());
    return;
  }
  // Keep slots proportional to each side's true sample count, so a small
  // accumulator cannot dominate the merged percentiles. `n_` was already
  // bumped above, so recover the pre-merge count for the weighting.
  const std::size_t n_self = n_ - other.n_;
  const auto take_even = [](const std::vector<double>& from,
                            std::size_t want, std::vector<double>& to) {
    want = std::min(want, from.size());
    const double stride =
        static_cast<double>(from.size()) / static_cast<double>(want);
    for (std::size_t i = 0; i < want; ++i) {
      to.push_back(from[static_cast<std::size_t>(
          static_cast<double>(i) * stride)]);
    }
  };
  std::size_t want_self = static_cast<std::size_t>(
      static_cast<double>(kReservoirCapacity) * static_cast<double>(n_self) /
      static_cast<double>(n_));
  want_self = std::min(want_self, reservoir_.size());
  const std::size_t want_other =
      std::min(kReservoirCapacity - want_self, other.reservoir_.size());
  want_self = std::min(kReservoirCapacity - want_other, reservoir_.size());

  std::vector<double> merged;
  merged.reserve(want_self + want_other);
  take_even(reservoir_, want_self, merged);
  take_even(other.reservoir_, want_other, merged);
  reservoir_ = std::move(merged);
}

}  // namespace nexuspp::util
