#pragma once
// Overlap-heavy workloads: streams whose accesses partially overlap at
// *different base addresses*, so base-address matching (the paper's scheme)
// silently misses real hazards while range matching catches them. Every
// other generator in this directory emits fixed-size, aligned blocks — on
// those the two match modes are indistinguishable, which is exactly why
// this gap went untested.
//
//   Halo stencil  — 1D blocked stencil iterated over time steps. Each task
//                   updates its own block (inout) and reads a halo of
//                   `halo_bytes` into each neighbour: the *left* halo is
//                   the tail of block i-1, so its base address equals no
//                   block base — invisible to base-address matching. (The
//                   right halo starts exactly at block i+1's base, so that
//                   hazard is visible to both modes: the workload mixes
//                   caught and missed overlaps, like the spatial-
//                   decomposition codes in Niethammer et al.)
//
//   Mixed tiles   — producers write whole tiles; consumers read sub-blocks
//                   of `tile_bytes / sub_blocks` bytes at staggered offsets
//                   (different granularity, different bases). Only the
//                   offset-0 sub-block shares the tile's base address, so
//                   base-address matching sees 1/sub_blocks of the real
//                   RAW hazards (and misses the next round's WARs against
//                   the staggered readers).

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/synth.hpp"
#include "trace/trace.hpp"

namespace nexuspp::workloads {

struct HaloStencilConfig {
  std::uint32_t blocks = 64;         ///< 1D block chain
  std::uint32_t steps = 8;           ///< time steps
  std::uint32_t block_bytes = 1024;  ///< owned region per block
  std::uint32_t halo_bytes = 64;     ///< bytes read into each neighbour
  trace::TimingModel timing;
  std::uint64_t seed = 42;
  core::Addr base = 0x2000'0000;

  void validate() const;
};

[[nodiscard]] constexpr std::uint64_t halo_stencil_task_count(
    const HaloStencilConfig& cfg) noexcept {
  return static_cast<std::uint64_t>(cfg.blocks) * cfg.steps;
}

/// Materializes the stencil trace in step-major, block-minor order.
[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_halo_stencil_trace(const HaloStencilConfig& cfg);

struct MixedTilesConfig {
  std::uint32_t tiles = 32;          ///< tiles per round
  std::uint32_t rounds = 4;          ///< producer/consumer rounds
  std::uint32_t tile_bytes = 4096;   ///< producer write granularity
  std::uint32_t sub_blocks = 4;      ///< consumers per tile (sub-block reads)
  trace::TimingModel timing;
  std::uint64_t seed = 42;
  core::Addr base = 0x3000'0000;

  void validate() const;
};

[[nodiscard]] constexpr std::uint64_t mixed_tiles_task_count(
    const MixedTilesConfig& cfg) noexcept {
  return static_cast<std::uint64_t>(cfg.rounds) * cfg.tiles *
         (1ull + cfg.sub_blocks);
}

/// Round-major: each round emits, per tile, the producer then its
/// sub-block consumers.
[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_mixed_tiles_trace(const MixedTilesConfig& cfg);

}  // namespace nexuspp::workloads
