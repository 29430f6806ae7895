#include "workloads/grid.hpp"

#include <algorithm>
#include <stdexcept>

namespace nexuspp::workloads {

const char* to_string(GridPattern p) noexcept {
  switch (p) {
    case GridPattern::kWavefront: return "wavefront (4a)";
    case GridPattern::kHorizontal: return "horizontal (4b)";
    case GridPattern::kVertical: return "vertical (4c)";
    case GridPattern::kIndependent: return "independent";
  }
  return "?";
}

core::Addr grid_block_addr(const GridConfig& cfg, std::uint32_t row,
                           std::uint32_t col) noexcept {
  return cfg.block_base +
         static_cast<core::Addr>(row) * cfg.cols * cfg.block_bytes +
         static_cast<core::Addr>(col) * cfg.block_bytes;
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_grid_trace(
    const GridConfig& cfg) {
  if (cfg.rows == 0 || cfg.cols == 0) {
    throw std::invalid_argument("grid workload: empty grid");
  }
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(static_cast<std::size_t>(cfg.rows) * cfg.cols);

  std::uint64_t serial = 0;
  for (std::uint32_t i = 0; i < cfg.rows; ++i) {
    for (std::uint32_t j = 0; j < cfg.cols; ++j, ++serial) {
      trace::TaskRecord rec;
      rec.serial = serial;
      rec.fn = 0xDEC0DE;
      // Identical times for the same serial across patterns: key the RNG
      // by (seed, serial).
      util::Rng rng(util::SplitMix64(cfg.seed ^ (serial * 0x9E37)).next());
      rec.exec_time = cfg.timing.draw_exec(rng);
      const auto mem = cfg.timing.draw_mem(rng);
      rec.read_bytes = mem.read_bytes;
      rec.write_bytes = mem.write_bytes;

      switch (cfg.pattern) {
        case GridPattern::kWavefront:
          if (j > 0) {
            rec.params.push_back(
                core::in(grid_block_addr(cfg, i, j - 1), cfg.block_bytes));
          }
          if (i > 0 && j + 1 < cfg.cols) {
            rec.params.push_back(core::in(
                grid_block_addr(cfg, i - 1, j + 1), cfg.block_bytes));
          }
          rec.params.push_back(
              core::inout(grid_block_addr(cfg, i, j), cfg.block_bytes));
          break;
        case GridPattern::kHorizontal:
          if (j > 0) {
            rec.params.push_back(
                core::in(grid_block_addr(cfg, i, j - 1), cfg.block_bytes));
          }
          rec.params.push_back(
              core::inout(grid_block_addr(cfg, i, j), cfg.block_bytes));
          break;
        case GridPattern::kVertical:
          if (i > 0) {
            rec.params.push_back(
                core::in(grid_block_addr(cfg, i - 1, j), cfg.block_bytes));
          }
          rec.params.push_back(
              core::inout(grid_block_addr(cfg, i, j), cfg.block_bytes));
          break;
        case GridPattern::kIndependent:
          // Two private addresses per task, far from the block array.
          rec.params.push_back(core::in(
              cfg.block_base + 0x4000'0000 +
                  serial * 2ull * cfg.block_bytes,
              cfg.block_bytes));
          rec.params.push_back(core::inout(
              cfg.block_base + 0x4000'0000 +
                  (serial * 2ull + 1) * cfg.block_bytes,
              cfg.block_bytes));
          break;
      }
      tasks->push_back(std::move(rec));
    }
  }
  return tasks;
}

std::uint32_t grid_max_parallelism(const GridConfig& cfg) {
  switch (cfg.pattern) {
    case GridPattern::kWavefront:
      // Wavefront anti-diagonals: every second column can be active
      // because of the up-right dependency; the classic bound for the
      // (left, up-right) stencil is ceil(min(rows, 2*cols) ... use the
      // standard result min(rows, ceil(cols/2)) capped by grid.
      return std::min(cfg.rows, (cfg.cols + 1) / 2);
    case GridPattern::kHorizontal:
      return cfg.rows;
    case GridPattern::kVertical:
      return cfg.cols;
    case GridPattern::kIndependent:
      return cfg.rows * cfg.cols;
  }
  return 0;
}

}  // namespace nexuspp::workloads
