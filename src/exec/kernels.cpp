#include "exec/kernels.hpp"

#include <chrono>
#include <stdexcept>

#include "chk/chk.hpp"
#include "exec/spin.hpp"
#include "util/rng.hpp"

namespace nexuspp::exec {

namespace {

using Clock = std::chrono::steady_clock;

/// Results of every body are published here so the optimizer cannot prove
/// the work dead (same device as spin.cpp's sink).
chk::Atomic<std::uint64_t> g_kernel_sink{0};

/// MEMORY_BOUND: per-worker stream buffer (a whole number of chunks).
constexpr std::size_t kBufferBytes = std::size_t{1} << 20;
/// COMPUTE_DGEMM: tile edge.
constexpr std::size_t kTile = 24;
/// LOAD_IMBALANCE: the per-task multiplier is uniform in [1, kImbalance).
constexpr double kImbalance = 4.0;
/// Seeds the per-worker state and the imbalance draw.
constexpr std::uint64_t kSeed = 1;

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

/// Times `body` running growing unit batches until the measurement window
/// comfortably exceeds clock granularity; returns ns per unit (>= 1).
std::uint64_t measure_unit_ns(KernelBody& body) {
  body.run_units(16);  // warm up: first-touch, frequency ramp
  std::uint64_t units = 64;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const auto t0 = Clock::now();
    body.run_units(units);
    const std::uint64_t window = elapsed_ns(t0, Clock::now());
    if (window >= 1'000'000) {  // >= 1 ms: good enough
      const std::uint64_t per_unit = window / units;
      return per_unit > 0 ? per_unit : 1;
    }
    units *= 4;
  }
  return 1;  // pessimistic fallback: 1 ns per unit
}

}  // namespace

const char* to_string(KernelKind kind) noexcept {
  switch (kind) {
    case KernelKind::kSpin: return "spin";
    case KernelKind::kComputeBound: return "compute";
    case KernelKind::kMemoryBound: return "memory";
    case KernelKind::kLoadImbalance: return "imbalance";
    case KernelKind::kComputeDgemm: return "dgemm";
  }
  return "?";
}

KernelKind kernel_kind_from_string(const std::string& name) {
  if (name == "spin") return KernelKind::kSpin;
  if (name == "compute") return KernelKind::kComputeBound;
  if (name == "memory") return KernelKind::kMemoryBound;
  if (name == "imbalance") return KernelKind::kLoadImbalance;
  if (name == "dgemm") return KernelKind::kComputeDgemm;
  throw std::invalid_argument(
      "unknown kernel kind '" + name +
      "' (accepted: spin, compute, memory, imbalance, dgemm)");
}

std::uint64_t kernel_unit_ns(KernelKind kind) {
  switch (kind) {
    case KernelKind::kSpin:
      return 0;
    case KernelKind::kComputeBound:
    case KernelKind::kLoadImbalance: {
      // Both execute compute units; one calibration serves both.
      static const std::uint64_t value = [] {
        KernelBody scratch(KernelConfig{KernelKind::kComputeBound}, 0);
        return measure_unit_ns(scratch);
      }();
      return value;
    }
    case KernelKind::kMemoryBound: {
      static const std::uint64_t value = [] {
        KernelBody scratch(KernelConfig{KernelKind::kMemoryBound}, 0);
        return measure_unit_ns(scratch);
      }();
      return value;
    }
    case KernelKind::kComputeDgemm: {
      static const std::uint64_t value = [] {
        KernelBody scratch(KernelConfig{KernelKind::kComputeDgemm}, 0);
        return measure_unit_ns(scratch);
      }();
      return value;
    }
  }
  return 0;
}

KernelBody::KernelBody(const KernelConfig& config, std::uint32_t worker_index)
    : config_(config) {
  // Seed per-worker state differently so workers never share cache lines
  // through identical constants (acc_ also feeds the skew-free chains).
  acc_ = util::SplitMix64(kSeed ^ (0x5EEDull + worker_index)).next();
  if (config_.kind == KernelKind::kMemoryBound) {
    buffer_.assign(kBufferBytes / sizeof(std::uint64_t), 0);
  }
  if (config_.kind == KernelKind::kComputeDgemm) {
    const std::size_t n = kTile * kTile;
    a_.resize(n);
    b_.resize(n);
    c_.assign(n, 0.0);
    util::Rng rng(acc_);
    for (std::size_t i = 0; i < n; ++i) {
      a_[i] = rng.uniform01();
      b_[i] = rng.uniform01();
    }
  }
}

std::uint64_t KernelBody::unit_ns() const {
  return kernel_unit_ns(config_.kind);
}

std::uint64_t KernelBody::units_for(std::uint64_t ns) const {
  if (config_.kind == KernelKind::kSpin || ns == 0) return 0;
  const std::uint64_t per_unit = unit_ns();
  const std::uint64_t units = ns / per_unit;
  return units > 0 ? units : 1;
}

double KernelBody::skew(std::uint64_t serial) const {
  if (config_.kind != KernelKind::kLoadImbalance) return 1.0;
  // Deterministic in the serial: the same trace produces the same
  // imbalance profile on every run and on every worker.
  const std::uint64_t bits =
      util::SplitMix64(kSeed ^ (serial * 0x9E3779B97F4A7C15ull)).next();
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return 1.0 + (kImbalance - 1.0) * u;
}

std::uint64_t KernelBody::run(std::uint64_t ns, std::uint64_t serial) {
  if (config_.kind == KernelKind::kSpin) {
    spin_for_ns(ns);
    return 0;
  }
  const double scaled = static_cast<double>(ns) * skew(serial);
  const std::uint64_t units = units_for(static_cast<std::uint64_t>(scaled));
  run_units(units);
  return units;
}

void KernelBody::run_units(std::uint64_t units) {
  if (units == 0) return;
  switch (config_.kind) {
    case KernelKind::kSpin:
      return;
    case KernelKind::kComputeBound:
    case KernelKind::kLoadImbalance:
      for (std::uint64_t u = 0; u < units; ++u) compute_unit();
      break;
    case KernelKind::kMemoryBound:
      for (std::uint64_t u = 0; u < units; ++u) memory_unit();
      break;
    case KernelKind::kComputeDgemm:
      for (std::uint64_t u = 0; u < units; ++u) dgemm_unit();
      break;
  }
  // Publish so the bodies above are observable side effects.
  g_kernel_sink.fetch_add(acc_, std::memory_order_relaxed);
}

void KernelBody::compute_unit() {
  // Dependent multiply-add chain, same recurrence as the spin calibrator.
  std::uint64_t x = acc_ | 1u;
  for (std::uint64_t i = 0; i < kComputeIters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  }
  acc_ = x;
}

void KernelBody::memory_unit() {
  // One read-modify-write pass over the next chunk; the cursor wraps, so
  // enough units cover every element (what the coverage test asserts).
  constexpr std::size_t kChunkElems = kChunkBytes / sizeof(std::uint64_t);
  const std::size_t n = buffer_.size();
  std::size_t pos = cursor_;
  for (std::size_t i = 0; i < kChunkElems; ++i) {
    buffer_[pos] += 1;
    acc_ += buffer_[pos];
    pos = pos + 1 == n ? 0 : pos + 1;
  }
  cursor_ = pos;
}

void KernelBody::dgemm_unit() {
  constexpr std::size_t t = kTile;
  for (std::size_t i = 0; i < t; ++i) {
    for (std::size_t k = 0; k < t; ++k) {
      const double aik = a_[i * t + k];
      for (std::size_t j = 0; j < t; ++j) {
        c_[i * t + j] += aik * b_[k * t + j];
      }
    }
  }
  // Fold one result element into the accumulator chain (observability).
  acc_ += static_cast<std::uint64_t>(c_[0]);
}

}  // namespace nexuspp::exec
