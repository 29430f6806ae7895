#pragma once
// Simulated software StarSs runtime system — the baseline Nexus/Nexus++
// exist to beat.
//
// In the software RTS everything the Task Maestro does in hardware runs on
// the master core: task creation, dependency resolution (hash-map
// operations costing hundreds of nanoseconds instead of 2 ns SRAM
// accesses), scheduling, and completion processing. The master is a single
// thread, so submission and completion handling serialize — exactly the
// bottleneck [10] measured: "the RTS cannot compute task dependencies and
// attend to finished tasks fast enough to keep all worker cores busy".
//
// Default costs are set so that per-task master-side work is ~3 us for a
// 3-parameter task, in line with the several-microsecond StarSs runtime
// overheads reported by the Nexus work; all knobs are configurable.
//
// Workers have no Task Controllers: input fetch, execution and write-back
// serialize per task (no double buffering).

#include <cstdint>
#include <memory>

#include "core/types.hpp"
#include "engine/run_report.hpp"
#include "hw/memory.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

namespace nexuspp::rts {

struct SoftwareRtsConfig {
  std::uint32_t num_workers = 4;
  sim::Time task_create_overhead = sim::ns(1000);  ///< runtime call + alloc
  sim::Time resolve_per_param = sim::ns(250);      ///< software hash ops
  sim::Time finish_per_param = sim::ns(250);       ///< release + wakeups
  sim::Time schedule_overhead = sim::ns(200);      ///< ready-queue push
  sim::Time dequeue_overhead = sim::ns(200);       ///< worker pop + sync
  hw::MemoryConfig memory{};                       ///< same memory system
  /// Address-matching semantics of the software dependency resolver.
  core::MatchMode match_mode = core::MatchMode::kBaseAddr;

  void validate() const;
};

/// Runs the software-RTS model over a workload stream. Everything the
/// Task Maestro splits over six blocks runs on the one master thread, so
/// the report has one "master" stage, whose stall time is implicit in its
/// busy gap; the completion queue holds 4 signals per worker.
[[nodiscard]] engine::RunReport run_software_rts(
    const SoftwareRtsConfig& config,
    std::unique_ptr<trace::TaskStream> stream);

}  // namespace nexuspp::rts
