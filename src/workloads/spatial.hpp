#pragma once
// Sparse/irregular spatial-decomposition stream, after the data-dependency
// aware spatial-decomposition codes of Niethammer et al. (SPH / short-
// range MD): space is cut into a 2D grid of cells, only a seeded-random
// subset is occupied, and each time step runs one task per occupied cell
// that updates the cell (inout) and reads every occupied neighbour within
// the 8-cell Moore neighbourhood. The result is exactly the task-graph
// shape those runtimes struggle with — irregular degree (0..8 inputs),
// serialization chains along dense clusters, and a parallelism profile set
// by the occupancy pattern instead of a closed formula.
//
// With halo_bytes > 0 the neighbour reads shrink to a halo that reaches
// *into the tail* of the neighbour cell (base + cell_bytes - halo_bytes):
// a base address no writer ever uses, so base-address matching misses
// those hazards while range matching catches them — the same knob the
// overlap workloads probe, here on an irregular graph.

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/synth.hpp"
#include "trace/trace.hpp"

namespace nexuspp::workloads {

struct SpatialConfig {
  std::uint32_t cells_x = 16;
  std::uint32_t cells_y = 16;
  std::uint32_t steps = 4;
  double fill = 0.6;               ///< occupancy probability per cell
  std::uint32_t cell_bytes = 512;  ///< owned region per cell
  /// 0 = read whole neighbour cells (base-aligned); > 0 = read only a
  /// halo_bytes tail slice of each neighbour (partial overlap, range-mode
  /// territory). Must be < cell_bytes.
  std::uint32_t halo_bytes = 0;
  trace::TimingModel timing;
  std::uint64_t seed = 42;
  core::Addr base = 0xB000'0000;

  void validate() const;
};

/// Number of occupied cells for this config (deterministic in seed).
[[nodiscard]] std::uint64_t spatial_occupied_cells(const SpatialConfig& cfg);

/// Total tasks = steps * occupied cells.
[[nodiscard]] std::uint64_t spatial_task_count(const SpatialConfig& cfg);

/// Materializes the trace in step-major, row-major-cell order.
[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_spatial_trace(const SpatialConfig& cfg);

}  // namespace nexuspp::workloads
