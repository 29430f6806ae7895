#pragma once
// Tiled dense-factorization DAGs: the application-shaped task graphs the
// StarSs literature evaluates runtimes on (CppSs reports tiled Cholesky;
// the original StarSs/SMPSs papers use both Cholesky and LU). A matrix of
// `tiles` x `tiles` square tiles is factorized tile by tile; each kernel
// is one task whose parameters are the tiles it touches, so the dependency
// structure — a diminishing sequence of panels fanning out into trailing-
// matrix updates — emerges entirely from the access lists.
//
// Tiled Cholesky (lower-triangular, right-looking), per step k:
//   POTRF(k)      inout A[k][k]
//   TRSM(i,k)     in A[k][k], inout A[i][k]            i = k+1..t-1
//   GEMM(i,j,k)   in A[i][k], in A[j][k], inout A[i][j]    k < j < i
//   SYRK(i,k)     in A[i][k], inout A[i][i]            i = k+1..t-1
//
// Tiled LU (no pivoting, right-looking), per step k:
//   GETRF(k)      inout A[k][k]
//   TRSM-row(k,j) in A[k][k], inout A[k][j]            j = k+1..t-1
//   TRSM-col(i,k) in A[k][k], inout A[i][k]            i = k+1..t-1
//   GEMM(i,j,k)   in A[i][k], in A[k][j], inout A[i][j]    i,j > k
//
// Task durations are deterministic functions of the kernel FLOP counts for
// a b x b tile (b = tile_elems): POTRF b^3/3, TRSM b^3, SYRK b^3,
// GEMM 2 b^3, converted at `gflops_per_core` — no RNG, so a (config)
// pair always generates the identical trace. Read/write byte volumes are
// the touched tiles' sizes (inputs read; the inout tile read and written).

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/trace.hpp"

namespace nexuspp::workloads {

/// Kernel identifiers stamped into TaskRecord::fn (distinct per kernel so
/// traces stay self-describing).
enum : std::uint64_t {
  kFnPotrf = 0xC401,
  kFnTrsm = 0xC402,
  kFnSyrk = 0xC403,
  kFnGemm = 0xC404,
  kFnGetrf = 0x1F01,
};

struct FactorizationConfig {
  std::uint32_t tiles = 8;         ///< tile-grid dimension (t x t tiles)
  std::uint32_t tile_elems = 64;   ///< b: each tile is b x b elements
  std::uint32_t elem_bytes = 8;    ///< double precision
  double gflops_per_core = 2.0;    ///< kernel FLOPs -> task duration
  core::Addr base = 0xA000'0000;
  /// Address distance between consecutive tiles; 0 = dense (tile_bytes()).
  core::Addr tile_stride = 0;

  void validate() const;
  [[nodiscard]] std::uint32_t tile_bytes() const noexcept {
    return tile_elems * tile_elems * elem_bytes;
  }
  [[nodiscard]] core::Addr stride() const noexcept {
    return tile_stride != 0 ? tile_stride : tile_bytes();
  }
  /// Base address of tile (i, j), row-major.
  [[nodiscard]] core::Addr tile_addr(std::uint32_t i,
                                     std::uint32_t j) const noexcept {
    return base + (static_cast<core::Addr>(i) * tiles + j) * stride();
  }
};

/// sum over k of [1 POTRF + (t-k-1) TRSM + (t-k-1) SYRK + C(t-k-1,2) GEMM].
[[nodiscard]] std::uint64_t cholesky_task_count(std::uint32_t tiles) noexcept;

/// sum over k of [1 GETRF + 2(t-k-1) TRSM + (t-k-1)^2 GEMM].
[[nodiscard]] std::uint64_t lu_task_count(std::uint32_t tiles) noexcept;

[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_cholesky_trace(const FactorizationConfig& cfg);

[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_lu_trace(const FactorizationConfig& cfg);

}  // namespace nexuspp::workloads
