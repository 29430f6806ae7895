#pragma once
// Randomized task-graph generator: fuzzing fuel for system-level property
// tests and robustness benches. Tasks draw 1..max_params distinct
// addresses from a bounded pool with a configurable write probability —
// small pools and high write ratios produce dense RAW/WAR/WAW webs, large
// pools approach the independent-tasks benchmark.

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/synth.hpp"
#include "trace/trace.hpp"

namespace nexuspp::workloads {

struct RandomDagConfig {
  std::uint32_t num_tasks = 1000;
  std::uint32_t addr_space = 64;  ///< distinct addresses in play
  std::uint32_t max_params = 4;
  double write_prob = 0.35;
  trace::TimingModel timing;
  std::uint64_t seed = 1;
  core::Addr base = 0x9000'0000;
  std::uint32_t block_bytes = 64;

  void validate() const;
};

[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_random_dag_trace(const RandomDagConfig& cfg);

}  // namespace nexuspp::workloads
