#pragma once
// The simulated Nexus++ multicore system (Fig. 1 / Fig. 2 of the paper):
// one master core generating Task Descriptors, the Task Maestro with its
// six pipelined hardware blocks, and one Task Controller per worker core.
//
// Structure (each bullet is one coroutine process):
//   master           — pulls tasks from the workload stream, pays the
//                      preparation time and the bus transfer, stalls when
//                      the TDs buffer is full.
//   Write TP         — allocates Task Pool slots (dummy tasks included),
//                      stalls while the pool is full.
//   Check Deps       — Listing 2 per parameter, stalls while the
//                      parameter's Dependence Table bank is full; ready
//                      tasks go to the Global Ready list.
//   Schedule         — pairs ready tasks with worker-core IDs (round robin
//                      via the Worker Cores IDs FIFO).
//   Send TDs         — round-robin arbiter over TC requests; reads the TD
//                      and transfers it to the TC; logs the ID in the
//                      core's FinTasks list.
//   per worker: Get Inputs / Run Task / Put Outputs — the TC pipeline that
//                      implements double (arbitrary-depth) buffering.
//   Handle Finished  — round-robin over completion signals; walks the
//                      finished task's parameters, kicks off dependants,
//                      frees the descriptor, returns the worker ID.
//
// The Dependence Table is NexusConfig::banks address-interleaved banks
// (bank::BankedTable) resolved through bank::BankedResolver. The bank
// arbiter (bank::RoundSchedule / bank::BankUsage) times the two blocks
// that use the table: Check Deps charges each parameter's table work on
// its home bank's horizon and advances by the round-completion delta it
// adds, and Handle Finished charges the finished task's release walks the
// same way, as one delay. Work on different banks overlaps; work on one
// bank serializes. With one bank, the paper's monolithic table that
// nexus++ and classic-nexus model, every delta is the operation's own
// serial cost, so both blocks charge the plain serial sums.
//
// The simulation ends when no event remains. If tasks are missing at that
// point the run is reported as deadlocked, with a diagnosis (which block
// starved, table occupancies, fatal structural errors such as classic-Nexus
// kick-off overflow). So is a run that completed every task but left Task
// Pool descriptors or Dependence Table entries behind: the tables must
// drain.
//
// The system fills an engine::RunReport where it measures each value: the
// six blocks' busy/stall stages, the workers' execution time, the table
// and hazard statistics and the per-bank telemetry.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bank/arbiter.hpp"
#include "bank/banked_table.hpp"
#include "bank/resolver.hpp"
#include "core/task_pool.hpp"
#include "engine/run_report.hpp"
#include "hw/memory.hpp"
#include "nexus/config.hpp"
#include "obs/timeline.hpp"
#include "sim/arbiter.hpp"
#include "sim/event.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace nexuspp::nexus {

class NexusSystem {
 public:
  NexusSystem(NexusConfig config, std::unique_ptr<trace::TaskStream> stream);

  /// Runs the simulation to completion (single use).
  engine::RunReport run();

 private:
  using TaskId = core::TaskId;

  /// The Task Maestro's stages, in report_.stages order.
  enum Stage : std::uint8_t {
    kMaster,
    kWriteTp,
    kCheckDeps,
    kSchedule,
    kSendTds,
    kHandleFinished,
  };
  [[nodiscard]] engine::StageStat& stage(Stage s) noexcept {
    return report_.stages[s];
  }

  /// Per-Task-Pool-slot simulation payload (not hardware state): the
  /// trace-recorded durations the worker model replays.
  struct SlotTiming {
    sim::Time exec = 0;
    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
    core::Addr addr = 0;  ///< representative address for bank striping
    sim::Time submitted_at = 0;  ///< for turnaround accounting
  };

  // --- Processes -------------------------------------------------------------
  sim::Co<void> master_process();
  sim::Co<void> write_tp_process();
  sim::Co<void> check_deps_process();
  sim::Co<void> schedule_process();
  sim::Co<void> send_tds_process();
  sim::Co<void> handle_finished_process();
  sim::Co<void> tc_get_inputs_process(std::uint32_t worker);
  sim::Co<void> tc_run_process(std::uint32_t worker);
  sim::Co<void> tc_put_outputs_process(std::uint32_t worker);

  [[nodiscard]] sim::Time cycles(std::uint64_t n) const noexcept {
    return static_cast<sim::Time>(n) * cfg_.nexus_cycle;
  }
  [[nodiscard]] sim::Time access_time(const core::Cost& cost) const noexcept {
    return cycles(static_cast<std::uint64_t>(cost.total()) *
                  cfg_.onchip_access_cycles);
  }
  void fatal(std::string message);

  /// Timeline hook: records one event in sim-time coordinates when tracing
  /// is on; a single pointer test otherwise. Purely observational — never
  /// touches simulated state or timing.
  void obs_record(std::uint32_t track, obs::EventKind kind, sim::Time start,
                  sim::Time dur, std::uint64_t task,
                  std::uint64_t arg = 0) const noexcept {
    if (obs_rec_ != nullptr) {
      obs_rec_->record(track, kind, sim::to_ns(start), sim::to_ns(dur), task,
                       arg);
    }
  }
  /// Registers the block/worker tracks when a recorder is configured.
  void obs_setup_tracks();

  NexusConfig cfg_;
  std::unique_ptr<trace::TaskStream> stream_;

  sim::Simulator sim_;
  core::TaskPool tp_;
  bank::BankedTable dt_;
  bank::BankedResolver resolver_;
  hw::Memory memory_;

  // Bank arbiter state: one round schedule per requesting block, one shared
  // usage sink.
  bank::BankUsage bank_usage_;
  bank::RoundSchedule check_sched_;
  bank::RoundSchedule finish_sched_;

  // FIFO lists (paper Fig. 2). Unique_ptr: Fifo is pinned (self-referencing
  // waiters) and the per-worker lists are built at run time.
  sim::Fifo<trace::TaskRecord> tds_buffer_;
  sim::Fifo<TaskId> new_tasks_;
  sim::Fifo<TaskId> global_ready_;
  sim::Fifo<std::uint32_t> worker_ids_;
  std::vector<std::unique_ptr<sim::Fifo<TaskId>>> rdy_;     // CiRdyTasks
  std::vector<std::unique_ptr<sim::Fifo<TaskId>>> fin_;     // CiFinTasks
  std::vector<std::unique_ptr<sim::Fifo<TaskId>>> tc_in_;   // TC input
  std::vector<std::unique_ptr<sim::Fifo<TaskId>>> tc_mid_;  // fetched->run
  std::vector<std::unique_ptr<sim::Fifo<TaskId>>> tc_out_;  // run->writeback

  sim::RoundRobinArbiter send_requests_;
  sim::RoundRobinArbiter finish_signals_;
  sim::Event tp_space_freed_;
  sim::Event dt_space_freed_;

  std::vector<SlotTiming> timing_by_slot_;

  // Progress & accounting: the report is filled as the run measures it.
  engine::RunReport report_;
  bool ran_ = false;
  std::string fatal_error_;

  // Timeline tracing (sim clock domain); null recorder = hooks inert.
  obs::TimelineRecorder* obs_rec_ = nullptr;
  std::uint32_t obs_trk_master_ = 0;
  std::uint32_t obs_trk_write_tp_ = 0;
  std::uint32_t obs_trk_check_deps_ = 0;
  std::uint32_t obs_trk_handle_fin_ = 0;
  std::uint32_t obs_trk_worker0_ = 0;
};

/// Convenience harness used by benchmarks and tests: builds a system from
/// `config` and `stream`, runs it, returns the report. Throws
/// std::runtime_error on deadlock if `require_success`.
engine::RunReport run_system(const NexusConfig& config,
                             std::unique_ptr<trace::TaskStream> stream,
                             bool require_success = true);

}  // namespace nexuspp::nexus
