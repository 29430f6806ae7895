// Bank-scaling study: how dependence-resolution throughput responds to
// splitting the Dependence Table into address-interleaved banks.
//
// One grid: {nexus++, nexus-banked x banks in {1, 2, 4, 8, 16}} on the
// gaussian-elimination, halo-stencil, and mixed-granularity-tiles
// workloads, 16 workers, range matching (the mode with real multi-entry
// registration pressure; the overlap workloads exercise the multi-bank
// registration rule). Series baseline = nexus++, so the speedup column
// reads directly as "banked vs monolithic".
//
// Three things to read off the table:
//   parity    — nexus-banked @ 1 bank must match nexus++ exactly (both
//               run the same nexus::NexusSystem; CI's bank-parity step
//               checks these rows in the CSV).
//   scaling   — conflict wait (cycles operations queued behind a busy
//               bank) falls as banks grow, and Check Deps / Handle
//               Finished rounds shorten toward the longest single-bank
//               chain.
//   imbalance — the home-region hash is not a load balancer: the per-bank
//               occupancy imbalance column shows how unevenly real
//               workloads spread, the cost side of the banking trade.

#include "bench_common.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/overlap.hpp"

namespace nexuspp {
namespace {

int run() {
  workloads::GaussianConfig gauss;
  gauss.n = bench::full_mode() ? 64 : 28;

  workloads::HaloStencilConfig halo;
  halo.blocks = bench::full_mode() ? 256 : 64;
  halo.steps = bench::full_mode() ? 16 : 8;
  const auto halo_tasks = make_halo_stencil_trace(halo);

  workloads::MixedTilesConfig tiles;
  tiles.tiles = bench::full_mode() ? 128 : 32;
  tiles.rounds = bench::full_mode() ? 8 : 4;
  const auto tile_tasks = make_mixed_tiles_trace(tiles);

  // Fine-grain stencil: task bodies two orders of magnitude shorter, so
  // the Task Maestro — not worker execution — bounds the makespan. This is
  // the regime banking exists for.
  workloads::HaloStencilConfig fine = halo;
  fine.timing.mean_exec_ns = 250.0;
  fine.timing.mean_mem_ns = 100.0;
  const auto fine_tasks = make_halo_stencil_trace(fine);

  engine::SweepSpec spec;
  spec.workload("gaussian",
                [gauss] { return workloads::make_gaussian_stream(gauss); });
  spec.workload("halo-stencil", [&halo_tasks] {
    return std::make_unique<trace::VectorStream>(halo_tasks);
  });
  spec.workload("mixed-tiles", [&tile_tasks] {
    return std::make_unique<trace::VectorStream>(tile_tasks);
  });
  spec.workload("fine-halo", [&fine_tasks] {
    return std::make_unique<trace::VectorStream>(fine_tasks);
  });

  engine::EngineParams base;
  base.num_workers = 16;
  base.match_mode = core::MatchMode::kRange;

  for (const char* workload :
       {"gaussian", "halo-stencil", "mixed-tiles", "fine-halo"}) {
    // Monolithic reference first: the series baseline every banked point's
    // speedup is computed against.
    engine::PointSpec mono;
    mono.engine = "nexus++";
    mono.workload = workload;
    mono.params = base;
    mono.series = workload;
    mono.baseline = true;
    mono.label = "nexus++ (monolithic)";
    spec.point(mono);

    for (const std::uint32_t banks : {1u, 2u, 4u, 8u, 16u}) {
      engine::PointSpec p;
      p.engine = "nexus-banked";
      p.workload = workload;
      p.params = base;
      p.params.banks = banks;
      p.series = workload;
      p.label = std::to_string(banks) + (banks == 1 ? " bank" : " banks");
      spec.point(p);
    }
  }

  const auto results = bench::run_sweep(spec);

  bench::emit(
      "Dependence-table bank scaling (range matching, 16 workers)", results,
      {{"conflict wait",
        [](const engine::SweepResult& r) {
          return r.report.banks == 0
                     ? std::string("-")
                     : util::fmt_ns(sim::to_ns(r.report.bank_conflict_wait));
        }},
       {"imbalance busy/occ",
        [](const engine::SweepResult& r) {
          return r.report.banks == 0
                     ? std::string("-")
                     : util::fmt_f(r.report.bank_busy_imbalance, 2) + "/" +
                           util::fmt_f(r.report.bank_occupancy_imbalance, 2);
        }},
       {"peak bank live", [](const engine::SweepResult& r) {
          return r.report.banks == 0
                     ? std::string("-")
                     : util::fmt_count(r.report.bank_peak_live);
        }}});

  bench::note(
      "Expected shape: the 1-bank row reproduces the nexus++ baseline "
      "exactly (banks=1 is bit-identical). Conflict wait falls steeply "
      "with the bank count while the occupancy imbalance column grows — "
      "the hashed interleave spreads traffic, not hot addresses. Makespan "
      "speedup appears only where dependency resolution bounds the run: "
      "fine-halo (sub-microsecond tasks) gains steadily with banks, while "
      "the coarse-grain workloads keep their worker-bound makespans and "
      "only shed conflict wait.\n");
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() { return nexuspp::run(); }
