// Address-matching fidelity vs cost: base-address matching (the paper's
// Table III semantics) against range matching on workloads whose accesses
// partially overlap at different base addresses.
//
// One grid: {nexus++, software-rts} x {halo-stencil, mixed-tiles,
// h264-wavefront} x {match=base-addr, match=range}, baseline per series =
// the base-addr point. Three things to read off the table:
//
//   fidelity — range mode detects RAW/WAR/WAW hazards the base-address
//              scheme silently misses on the overlap workloads (the
//              "hazards" column grows), so its makespan is *longer*: the
//              extra dependencies are real serialization that base mode
//              incorrectly ignores.
//   cost     — "dt probes/lookup" compares the per-lookup price: hash
//              chain walk (base) vs interval-index window scan (range).
//   control  — on the aligned, uniform-block wavefront the two modes must
//              agree on *behaviour*: identical hazard counts and ready
//              order, because every overlap there is an exact base match.
//              (Makespans track within a fraction of a percent but are not
//              bit-equal: range lookups cost different Cost receipts, so
//              Check-Deps timing shifts slightly.)

#include "bench_common.hpp"
#include "workloads/grid.hpp"
#include "workloads/overlap.hpp"

namespace nexuspp {
namespace {

int run() {
  workloads::HaloStencilConfig halo;
  halo.blocks = bench::full_mode() ? 256 : 64;
  halo.steps = bench::full_mode() ? 16 : 8;
  const auto halo_tasks = make_halo_stencil_trace(halo);

  workloads::MixedTilesConfig tiles;
  tiles.tiles = bench::full_mode() ? 128 : 32;
  tiles.rounds = bench::full_mode() ? 8 : 4;
  const auto tile_tasks = make_mixed_tiles_trace(tiles);

  workloads::GridConfig grid;
  grid.rows = 40;
  grid.cols = 32;
  const auto grid_tasks = make_grid_trace(grid);

  engine::SweepSpec spec;
  spec.workload("halo-stencil", [&halo_tasks] {
    return std::make_unique<trace::VectorStream>(halo_tasks);
  });
  spec.workload("mixed-tiles", [&tile_tasks] {
    return std::make_unique<trace::VectorStream>(tile_tasks);
  });
  spec.workload("h264-wavefront", [&grid_tasks] {
    return std::make_unique<trace::VectorStream>(grid_tasks);
  });

  engine::EngineParams base;
  base.num_workers = 8;
  base.match_mode = core::MatchMode::kBaseAddr;
  engine::EngineParams range = base;
  range.match_mode = core::MatchMode::kRange;
  spec.grid({"nexus++", "software-rts"},
            {"halo-stencil", "mixed-tiles", "h264-wavefront"}, {base, range});

  const auto results = bench::run_sweep(spec);

  bench::emit(
      "Base-address vs range matching (hazard fidelity and lookup cost)",
      results,
      {{"workload",
        [](const engine::SweepResult& r) { return r.spec.workload; }},
       {"hazards raw/war/waw",
        [](const engine::SweepResult& r) {
          return util::fmt_count(r.report.raw_hazards) + "/" +
                 util::fmt_count(r.report.war_hazards) + "/" +
                 util::fmt_count(r.report.waw_hazards);
        }},
       {"dt probes/lookup", [](const engine::SweepResult& r) {
          return r.report.dt_lookups > 0
                     ? util::fmt_f(r.report.dt_avg_lookup_probes(), 2)
                     : std::string("-");
        }}});

  bench::note(
      "Expected shape: on halo-stencil and mixed-tiles, range matching "
      "reports several times more hazards — real dependencies the "
      "base-address scheme silently drops (its makespans are optimistic: "
      "they schedule tasks the data is not ready for). Range lookups cost "
      "more probes (interval window scan vs hash hit). On the aligned "
      "h264-wavefront control the modes agree on hazard counts (makespans "
      "track within a fraction of a percent; lookup costs differ).\n");
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() { return nexuspp::run(); }
