#pragma once
// Gaussian elimination with partial pivoting (Fig. 5 / Table II of the
// paper; task model after Veldhorst).
//
// For an n x n matrix the task graph contains (n^2 + n - 2) / 2 tasks:
// columns i = 1..n-1 each contribute one pivot task T(i,i) followed by
// n - i row-update tasks T(j,i), j = i+1..n. Weights follow the paper's
// formula (1):
//
//     W(T(j,i)) = n + 1 - i  FLOPs   if i == j   (pivot search + scale)
//                 n - i      FLOPs   if i <  j   (row update)
//
// Data accesses (base-address granularity, one address per matrix row):
//     T(i,i):  inout(row_i)
//     T(j,i):  in(row_i), inout(row_j)
//
// which yields exactly the published dependency structure: all T(j,i) wait
// for T(i,i) (RAW on the pivot row, n-i waiters — this is what overflows
// 8-entry kick-off lists and exercises dummy entries), and T(i+1,i+1)
// waits for T(i+1,i) (WAW/RAW on its own row).
//
// Task duration = W / (GFLOPS per core); each task reads W floats and
// writes W floats back (paper Section IV-A).
//
// The stream is generated lazily: Gaussian 5000 x 5000 is 12.5M tasks and
// is never materialized.

#include <cstdint>
#include <memory>

#include "trace/trace.hpp"

namespace nexuspp::workloads {

struct GaussianConfig {
  std::uint32_t n = 250;          ///< matrix dimension
  double gflops_per_core = 2.0;   ///< paper: 2 GFLOPS per worker core
  /// Matrix element size: the paper counts each task's traffic in floats
  /// (Section IV-A), and a single-precision float is 4 bytes.
  std::uint32_t float_bytes = 4;
  core::Addr row_base = 0x4000'0000;
  core::Addr row_stride = 0x1'0000;  ///< address distance between rows

  void validate() const;
};

/// Total task count: (n^2 + n - 2) / 2 (Table II).
[[nodiscard]] std::uint64_t gaussian_task_count(std::uint32_t n) noexcept;

/// Weight of T(j,i) in FLOPs per formula (1). Requires 1 <= i <= j <= n.
[[nodiscard]] std::uint64_t gaussian_weight(std::uint32_t n, std::uint32_t j,
                                            std::uint32_t i);

/// Sum of all task weights in FLOPs.
[[nodiscard]] double gaussian_total_flops(std::uint32_t n) noexcept;

/// Average task weight in FLOPs (Table II's right column).
[[nodiscard]] double gaussian_avg_weight(std::uint32_t n) noexcept;

/// Lazy stream over the Gaussian task graph in serial generation order:
/// T(1,1); T(2,1)..T(n,1); T(2,2); T(3,2)..T(n,2); ...; T(n,n-1).
class GaussianStream final : public trace::TaskStream {
 public:
  explicit GaussianStream(GaussianConfig cfg);

  std::optional<trace::TaskRecord> next() override;
  [[nodiscard]] std::uint64_t total_tasks() const override {
    return gaussian_task_count(cfg_.n);
  }

 private:
  [[nodiscard]] core::Addr row_addr(std::uint32_t row) const noexcept {
    return cfg_.row_base + static_cast<core::Addr>(row - 1) * cfg_.row_stride;
  }

  GaussianConfig cfg_;
  std::uint64_t serial_ = 0;
  std::uint32_t i_ = 1;  ///< current column (pivot step)
  std::uint32_t j_ = 1;  ///< next row; j_ == i_ means "emit the pivot task"
};

[[nodiscard]] std::unique_ptr<trace::TaskStream> make_gaussian_stream(
    const GaussianConfig& cfg);

}  // namespace nexuspp::workloads
