#pragma once
// task-bench dependence patterns: the timestep-grid workload family.
//
// The task-bench benchmark (Slaughter et al.) models a workload as a
// width x timesteps grid: task (t, p) is "point p at timestep t", and its
// inputs are the outputs of a *dependence set* of points from timestep
// t-1, selected by a PatternKind. Sweeping the pattern axis covers the
// scenario diversity the paper's hand-picked kernels (H.264, Gaussian
// elimination) only sample: broadcast trees, butterflies, all-to-all
// barriers, randomized neighborhoods.
//
// StarSs discovers dependencies from addresses, so the grid is mapped to
// a double-buffered address space: point p owns two regions, one per
// timestep parity. Task (t, p) writes (inout) its parity-(t % 2) region
// and reads the parity-((t-1) % 2) region of every dependence point —
// which reproduces the task-bench graph through RAW hazards, plus the
// WAR/WAW hazards real buffer reuse implies (a point's region is
// overwritten two timesteps later). Timestep 0 has no reads.
//
// The dependence sets (t >= 1, W = width, points 0..W-1) are normative —
// docs/WORKLOADS.md carries the same table, and the structural-oracle
// test reimplements them independently and diffs against the generator:
//
//   STENCIL_1D           {p-1, p, p+1} clamped to [0, W)
//   STENCIL_1D_PERIODIC  {p-1, p, p+1} modulo W
//   TREE                 {p / 2} (binary-tree parent; widening broadcast)
//   FFT                  {p, p XOR 2^s}, s = (t-1) mod ceil(log2 W),
//                        partner kept only if < W; {p} when W == 1
//   DOM                  {p-1, p} clamped (downward/diagonal sweep)
//   ALL_TO_ALL           every point [0, W)
//   NEAREST              [p-radius, p+radius] clamped
//   RANDOM_NEAREST       p itself always, plus each other point of the
//                        NEAREST window kept with probability `fraction`,
//                        decided by hash(seed, t, p, q) — deterministic
//                        in the seed, varying per timestep
//   SPREAD               {(p + i*ceil(W/A) + (t-1)) mod W} for
//                        i = 0..A-1, A = max(1, min(radius, W)) —
//                        strided arms rotating one point per timestep
//
// Every emitted dependence list is sorted ascending and deduplicated.
// Per-task durations are uniform (`task_ns`) — the METG granularity axis
// — and keyed only by (t, p) position, never by pattern, so patterns are
// compared on identical task costs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "trace/trace.hpp"

namespace nexuspp::workloads {

enum class PatternKind : std::uint8_t {
  kStencil1D,
  kStencil1DPeriodic,
  kTree,
  kFft,
  kDom,
  kAllToAll,
  kNearest,
  kRandomNearest,
  kSpread,
};

/// Every kind, in declaration order (tests and benches iterate this).
[[nodiscard]] const std::vector<PatternKind>& all_pattern_kinds();

[[nodiscard]] const char* to_string(PatternKind kind) noexcept;

/// Parses "stencil1d" / "stencil1d-periodic" / "tree" / "fft" / "dom" /
/// "all-to-all" / "nearest" / "random-nearest" / "spread"; throws
/// std::invalid_argument listing the accepted names.
[[nodiscard]] PatternKind pattern_kind_from_string(const std::string& name);

struct PatternConfig {
  PatternKind kind = PatternKind::kStencil1D;
  std::uint32_t width = 16;  ///< points per timestep
  std::uint32_t steps = 8;   ///< timesteps; tasks = width * steps
  /// NEAREST / RANDOM_NEAREST window reach (each side); SPREAD arm count.
  std::uint32_t radius = 2;
  /// RANDOM_NEAREST: keep probability for non-self window points, [0, 1].
  double fraction = 0.5;
  /// Uniform per-task duration — the METG granularity axis.
  std::uint64_t task_ns = 5'000;
  std::uint64_t seed = 42;
  core::Addr base = 0xC000'0000;   ///< start of the double-buffered space
  std::uint32_t point_bytes = 64;  ///< owned region per (point, parity)

  void validate() const;
};

/// Address of point `p`'s buffer for timestep parity `parity` (0 or 1).
[[nodiscard]] core::Addr pattern_point_addr(const PatternConfig& cfg,
                                            std::uint32_t p,
                                            std::uint32_t parity) noexcept;

/// The normative dependence set: points of timestep t-1 whose outputs
/// task (t, p) reads. Sorted ascending, deduplicated; empty for t == 0.
/// This is the function the generator emits accesses from and the
/// structural-oracle test diffs an independent reimplementation against.
[[nodiscard]] std::vector<std::uint32_t> pattern_deps(
    const PatternConfig& cfg, std::uint32_t t, std::uint32_t p);

[[nodiscard]] std::uint64_t pattern_task_count(
    const PatternConfig& cfg) noexcept;

/// Materializes the full trace in submission order (timestep-major,
/// point-minor), serials 0..tasks-1.
[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_pattern_trace(const PatternConfig& cfg);

}  // namespace nexuspp::workloads
