#include "workloads/factorization.hpp"

#include <stdexcept>

namespace nexuspp::workloads {

namespace {

/// FLOPs of one kernel on a b x b tile.
double kernel_flops(std::uint64_t fn, double b) {
  switch (fn) {
    case kFnPotrf: return b * b * b / 3.0;
    case kFnGetrf: return 2.0 * b * b * b / 3.0;
    case kFnTrsm: return b * b * b;
    case kFnSyrk: return b * b * b;
    case kFnGemm: return 2.0 * b * b * b;
    default: return b * b * b;
  }
}

/// Appends one kernel task. Inputs are read in full; the single inout
/// parameter (by construction the last one) is both read and written.
void emit(std::vector<trace::TaskRecord>& tasks,
          const FactorizationConfig& cfg, std::uint64_t fn,
          std::vector<core::Param> params) {
  trace::TaskRecord rec;
  rec.serial = tasks.size();
  rec.fn = fn;
  const double flops = kernel_flops(fn, static_cast<double>(cfg.tile_elems));
  rec.exec_time = sim::ns_f(flops / cfg.gflops_per_core);
  for (const auto& p : params) {
    if (core::reads(p.mode)) rec.read_bytes += p.size;
    if (core::writes(p.mode)) rec.write_bytes += p.size;
  }
  rec.params = std::move(params);
  tasks.push_back(std::move(rec));
}

}  // namespace

void FactorizationConfig::validate() const {
  if (tiles < 2) {
    throw std::invalid_argument(
        "factorization: need at least a 2x2 tile grid");
  }
  if (tile_elems == 0 || elem_bytes == 0) {
    throw std::invalid_argument("factorization: empty tiles");
  }
  if (static_cast<std::uint64_t>(tile_elems) * tile_elems * elem_bytes >
      0xFFFF'FFFFull) {
    throw std::invalid_argument(
        "factorization: tile larger than 4 GiB (param sizes are 32-bit)");
  }
  if (gflops_per_core <= 0.0) {
    throw std::invalid_argument("factorization: non-positive GFLOPS");
  }
  if (tile_stride != 0 && tile_stride < tile_bytes()) {
    throw std::invalid_argument(
        "factorization: tile_stride smaller than a tile (tiles would "
        "alias)");
  }
}

std::uint64_t cholesky_task_count(std::uint32_t tiles) noexcept {
  std::uint64_t count = 0;
  for (std::uint64_t k = 0; k < tiles; ++k) {
    const std::uint64_t rem = tiles - 1 - k;      // panels below the pivot
    count += 1 + rem + rem + rem * (rem - 1) / 2;  // POTRF+TRSM+SYRK+GEMM
  }
  return count;
}

std::uint64_t lu_task_count(std::uint32_t tiles) noexcept {
  std::uint64_t count = 0;
  for (std::uint64_t k = 0; k < tiles; ++k) {
    const std::uint64_t rem = tiles - 1 - k;
    count += 1 + 2 * rem + rem * rem;  // GETRF + row/col TRSM + GEMM
  }
  return count;
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_cholesky_trace(
    const FactorizationConfig& cfg) {
  cfg.validate();
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(cholesky_task_count(cfg.tiles));
  const std::uint32_t t = cfg.tiles;
  const std::uint32_t tb = cfg.tile_bytes();

  for (std::uint32_t k = 0; k < t; ++k) {
    emit(*tasks, cfg, kFnPotrf, {core::inout(cfg.tile_addr(k, k), tb)});
    for (std::uint32_t i = k + 1; i < t; ++i) {
      emit(*tasks, cfg, kFnTrsm,
           {core::in(cfg.tile_addr(k, k), tb),
            core::inout(cfg.tile_addr(i, k), tb)});
    }
    for (std::uint32_t i = k + 1; i < t; ++i) {
      for (std::uint32_t j = k + 1; j < i; ++j) {
        emit(*tasks, cfg, kFnGemm,
             {core::in(cfg.tile_addr(i, k), tb),
              core::in(cfg.tile_addr(j, k), tb),
              core::inout(cfg.tile_addr(i, j), tb)});
      }
      emit(*tasks, cfg, kFnSyrk,
           {core::in(cfg.tile_addr(i, k), tb),
            core::inout(cfg.tile_addr(i, i), tb)});
    }
  }
  return tasks;
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_lu_trace(
    const FactorizationConfig& cfg) {
  cfg.validate();
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(lu_task_count(cfg.tiles));
  const std::uint32_t t = cfg.tiles;
  const std::uint32_t tb = cfg.tile_bytes();

  for (std::uint32_t k = 0; k < t; ++k) {
    emit(*tasks, cfg, kFnGetrf, {core::inout(cfg.tile_addr(k, k), tb)});
    for (std::uint32_t j = k + 1; j < t; ++j) {
      emit(*tasks, cfg, kFnTrsm,
           {core::in(cfg.tile_addr(k, k), tb),
            core::inout(cfg.tile_addr(k, j), tb)});
    }
    for (std::uint32_t i = k + 1; i < t; ++i) {
      emit(*tasks, cfg, kFnTrsm,
           {core::in(cfg.tile_addr(k, k), tb),
            core::inout(cfg.tile_addr(i, k), tb)});
    }
    for (std::uint32_t i = k + 1; i < t; ++i) {
      for (std::uint32_t j = k + 1; j < t; ++j) {
        emit(*tasks, cfg, kFnGemm,
             {core::in(cfg.tile_addr(i, k), tb),
              core::in(cfg.tile_addr(k, j), tb),
              core::inout(cfg.tile_addr(i, j), tb)});
      }
    }
  }
  return tasks;
}

}  // namespace nexuspp::workloads
