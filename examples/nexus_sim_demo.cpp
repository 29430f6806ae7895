// Simulator walkthrough: build the paper's H.264 trace, save/reload it
// through the trace-file format, run it through the full Nexus++ system
// model at a chosen core count, and print the detailed report (block
// utilizations, table statistics, hazard counts).
//
// Usage: nexus_sim_demo [--cores=N] [--depth=D] [--contention=0|1]
//                       [--trace-out=path.nxt]

#include <iostream>

#include "engine/registry.hpp"
#include "trace/io.hpp"
#include "util/flags.hpp"
#include "workloads/grid.hpp"

int main(int argc, char** argv) {
  using namespace nexuspp;

  util::Flags flags(argc, argv);
  const auto cores = static_cast<std::uint32_t>(flags.get_int("cores", 16));
  const auto depth = static_cast<std::uint32_t>(flags.get_int("depth", 2));
  const bool contention = flags.get_bool("contention", true);

  // 1. Generate the H.264 wavefront workload (120 x 68 macroblocks,
  //    Cell-trace time distributions).
  workloads::GridConfig grid;
  auto tasks = make_grid_trace(grid);
  const auto summary = trace::summarize(*tasks);
  std::cout << "workload: " << summary.tasks << " tasks, mean exec "
            << util::fmt_ns(summary.mean_exec_ns) << ", mean memory "
            << util::fmt_ns((summary.mean_read_bytes +
                             summary.mean_write_bytes) /
                            128.0 * 12.0)
            << " (paper: 11.8 us / 7.5 us)\n";

  // 2. Demonstrate the trace format round trip.
  if (auto path = flags.get("trace-out")) {
    trace::save(*path, *tasks);
    auto reloaded = trace::load(*path);
    std::cout << "trace saved to " << *path << " and reloaded ("
              << reloaded.size() << " records match: "
              << (reloaded == *tasks ? "yes" : "NO") << ")\n";
  }

  // 3. Configure the system (Table IV defaults + command line overrides).
  engine::EngineParams params;
  params.num_workers = cores;
  params.buffering_depth = depth;
  params.contention = contention ? hw::ContentionModel::kPorts
                                 : hw::ContentionModel::kNone;
  std::cout << "\n"
            << engine::NexusEngine::apply(nexus::NexusConfig{}, params)
                   .describe()
                   .to_string()
            << "\n";

  // 4. Run on the nexus++ engine and report.
  const auto& registry = engine::EngineRegistry::builtins();
  const auto report =
      registry.make("nexus++", params)->run(workloads::make_grid_stream(tasks));
  if (report.deadlocked) {
    std::cerr << "deadlock: " << report.diagnosis << "\n";
    return 1;
  }
  std::cout << report
                   .to_table("H.264 wavefront on " +
                             std::to_string(cores) + " workers")
                   .to_string();

  // 5. A single-core reference for the speedup number.
  engine::EngineParams single = params;
  single.num_workers = 1;
  const auto reference =
      registry.make("nexus++", single)->run(workloads::make_grid_stream(tasks));
  std::cout << "\nspeedup vs single core: "
            << util::fmt_x(report.speedup_vs(reference)) << "\n";
  return 0;
}
