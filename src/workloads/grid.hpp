#pragma once
// Grid workloads: the paper's H.264 macroblock benchmark and its
// derivatives (Fig. 4).
//
//   kWavefront   (Fig 4a) — decode(X[i][j-1], X[i-1][j+1], X[i][j]):
//                 every block depends on its left and up-right neighbours;
//                 parallelism ramps up to the anti-diagonal and back down.
//   kHorizontal  (Fig 4b) — block depends on its left neighbour: chains run
//                 in the same direction tasks are generated, so the ready
//                 window stays tiny (the paper measures <= 8x).
//   kVertical    (Fig 4c) — block depends on its upper neighbour: after the
//                 first generated row every column chain has a ready head,
//                 giving a steady `cols`-wide supply of parallel tasks.
//   kIndependent — no shared addresses at all; measures the raw scalability
//                 ceiling of the task-management hardware.
//
// Per-task times are drawn from trace::TimingModel keyed by (seed, serial),
// so all four patterns over the same grid get identical task durations —
// exactly how the paper reuses the H.264 times for every pattern.

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/synth.hpp"
#include "trace/trace.hpp"

namespace nexuspp::workloads {

enum class GridPattern : std::uint8_t {
  kWavefront,
  kHorizontal,
  kVertical,
  kIndependent,
};

[[nodiscard]] const char* to_string(GridPattern p) noexcept;

struct GridConfig {
  std::uint32_t rows = 120;  ///< paper: 120 x 68 macroblocks = 8160 tasks
  std::uint32_t cols = 68;
  GridPattern pattern = GridPattern::kWavefront;
  trace::TimingModel timing;
  std::uint64_t seed = 42;
  core::Addr block_base = 0x1000'0000;
  std::uint32_t block_bytes = 1024;  ///< 16x16 int macroblock
};

/// Address of block (row, col).
[[nodiscard]] core::Addr grid_block_addr(const GridConfig& cfg,
                                         std::uint32_t row,
                                         std::uint32_t col) noexcept;

/// Materializes the full trace (8160 records by default) in generation
/// order (row-major, matching the paper's serial submission order).
[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_grid_trace(const GridConfig& cfg);

/// Maximum theoretical parallelism of a pattern on this grid (used by
/// tests and expected-shape checks).
[[nodiscard]] std::uint32_t grid_max_parallelism(const GridConfig& cfg);

}  // namespace nexuspp::workloads
