#include "workloads/wide.hpp"

#include <stdexcept>

namespace nexuspp::workloads {

void WideConfig::validate() const {
  if (lanes == 0 || chain_length == 0 || width == 0) {
    throw std::invalid_argument("wide workload: empty dimensions");
  }
  if (block_bytes == 0) {
    throw std::invalid_argument("wide workload: bad block size");
  }
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_wide_trace(
    const WideConfig& cfg) {
  cfg.validate();
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(cfg.total_tasks());

  // Output block address for (lane, step, slot).
  auto block = [&cfg](std::uint32_t lane, std::uint32_t step,
                      std::uint32_t slot) -> core::Addr {
    const std::uint64_t index =
        (static_cast<std::uint64_t>(lane) * cfg.chain_length + step) *
            cfg.width +
        slot;
    return cfg.base + index * cfg.block_bytes;
  };

  std::uint64_t serial = 0;
  // Generation order interleaves lanes (round-robin over steps) so chains
  // progress together, as a real multi-stream application would submit.
  for (std::uint32_t step = 0; step < cfg.chain_length; ++step) {
    for (std::uint32_t lane = 0; lane < cfg.lanes; ++lane, ++serial) {
      trace::TaskRecord rec;
      rec.serial = serial;
      rec.fn = 0x3142;
      util::Rng rng(util::SplitMix64(cfg.seed ^ (serial * 0xA5A5)).next());
      rec.exec_time = cfg.timing.draw_exec(rng);
      const auto mem = cfg.timing.draw_mem(rng);
      rec.read_bytes = mem.read_bytes;
      rec.write_bytes = mem.write_bytes;

      if (step > 0) {
        for (std::uint32_t s = 0; s < cfg.width; ++s) {
          rec.params.push_back(
              core::in(block(lane, step - 1, s), cfg.block_bytes));
        }
      }
      for (std::uint32_t s = 0; s < cfg.width; ++s) {
        rec.params.push_back(
            core::out(block(lane, step, s), cfg.block_bytes));
      }
      tasks->push_back(std::move(rec));
    }
  }
  return tasks;
}

}  // namespace nexuspp::workloads
