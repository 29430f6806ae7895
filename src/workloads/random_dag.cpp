#include "workloads/random_dag.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace nexuspp::workloads {

void RandomDagConfig::validate() const {
  if (num_tasks == 0) {
    throw std::invalid_argument("random dag: num_tasks must be >= 1");
  }
  if (addr_space == 0) {
    throw std::invalid_argument("random dag: addr_space must be >= 1");
  }
  if (max_params == 0 || max_params > addr_space) {
    throw std::invalid_argument(
        "random dag: need 1 <= max_params <= addr_space");
  }
  if (write_prob < 0.0 || write_prob > 1.0) {
    throw std::invalid_argument("random dag: bad write probability");
  }
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_random_dag_trace(
    const RandomDagConfig& cfg) {
  cfg.validate();
  util::Rng rng(cfg.seed);
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(cfg.num_tasks);

  std::vector<std::uint32_t> slots(cfg.addr_space);
  for (std::uint32_t i = 0; i < cfg.addr_space; ++i) slots[i] = i;

  for (std::uint32_t t = 0; t < cfg.num_tasks; ++t) {
    trace::TaskRecord rec;
    rec.serial = t;
    rec.fn = 0xDA6;
    rec.exec_time = cfg.timing.draw_exec(rng);
    const auto mem = cfg.timing.draw_mem(rng);
    rec.read_bytes = mem.read_bytes;
    rec.write_bytes = mem.write_bytes;

    // Partial Fisher-Yates: the first `n` slots become a distinct sample.
    const auto n = static_cast<std::uint32_t>(
        1 + rng.below(cfg.max_params));
    rec.params.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto j = i + static_cast<std::uint32_t>(
                             rng.below(cfg.addr_space - i));
      std::swap(slots[i], slots[j]);
      core::Param p;
      p.addr = cfg.base +
               static_cast<core::Addr>(slots[i]) * cfg.block_bytes;
      p.size = cfg.block_bytes;
      if (rng.chance(cfg.write_prob)) {
        p.mode = rng.chance(0.5) ? core::AccessMode::kOut
                                 : core::AccessMode::kInOut;
      } else {
        p.mode = core::AccessMode::kIn;
      }
      rec.params.push_back(p);
    }
    tasks->push_back(std::move(rec));
  }
  return tasks;
}

}  // namespace nexuspp::workloads
