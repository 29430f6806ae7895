#pragma once
// Wide-task workload: a stress generator for the dummy-task mechanism
// (Fig. 3 of the paper — "if Tx has 2n outputs and a Task Descriptor can
// only store n of them...").
//
// The workload is `lanes` independent chains of `chain_length` tasks. Task
// k of a lane produces `width` output blocks and consumes all `width`
// outputs of task k-1, so every task has up to 2*width parameters — far
// beyond the 8-parameter descriptor, forcing dummy-task chains in the Task
// Pool (and, with many lanes, plenty of Dependence Table traffic).

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/synth.hpp"
#include "trace/trace.hpp"

namespace nexuspp::workloads {

struct WideConfig {
  std::uint32_t lanes = 8;
  std::uint32_t chain_length = 64;
  std::uint32_t width = 12;  ///< outputs per task (params up to 2*width)
  trace::TimingModel timing;
  std::uint64_t seed = 7;
  core::Addr base = 0x7000'0000;
  std::uint32_t block_bytes = 256;

  void validate() const;
  [[nodiscard]] std::uint64_t total_tasks() const noexcept {
    return static_cast<std::uint64_t>(lanes) * chain_length;
  }
};

[[nodiscard]] std::shared_ptr<const std::vector<trace::TaskRecord>>
make_wide_trace(const WideConfig& cfg);

}  // namespace nexuspp::workloads
