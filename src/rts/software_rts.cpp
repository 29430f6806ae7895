#include "rts/software_rts.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/oracle.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"

namespace nexuspp::rts {

void SoftwareRtsConfig::validate() const {
  if (num_workers == 0) {
    throw std::invalid_argument("SoftwareRts: need at least one worker");
  }
  memory.validate();
}

namespace {

/// One simulated software-RTS run. The master process interleaves
/// submission with completion handling (single thread); workers execute
/// tasks with no buffering.
class SoftwareRtsSystem {
 public:
  SoftwareRtsSystem(const SoftwareRtsConfig& cfg,
                    std::unique_ptr<trace::TaskStream> stream)
      : cfg_(cfg),
        stream_(std::move(stream)),
        memory_(sim_, cfg.memory),
        graph_(cfg.match_mode),
        ready_(sim_, std::max<std::uint64_t>(stream_->total_tasks(), 1)),
        completions_(sim_, cfg.num_workers * 4) {
    cfg_.validate();
    report_.measures = engine::RunReport::kMemory;
    report_.tasks_expected = stream_->total_tasks();
    report_.num_workers = cfg_.num_workers;
    report_.stages = {{"master"}};
  }

  engine::RunReport run() {
    sim_.spawn(master_process());
    for (std::uint32_t w = 0; w < cfg_.num_workers; ++w) {
      sim_.spawn(worker_process());
    }
    const sim::Time end = sim_.run();

    engine::RunReport& r = report_;
    r.makespan = end;
    r.deadlocked = r.tasks_completed != r.tasks_expected;
    if (r.deadlocked) {
      r.diagnosis = "software RTS: completed " +
                    std::to_string(r.tasks_completed) + "/" +
                    std::to_string(r.tasks_expected);
    }
    if (end > 0) {
      r.avg_core_utilization = static_cast<double>(r.total_exec_time) /
                               (static_cast<double>(end) * cfg_.num_workers);
    }
    r.mem_stats = memory_.stats();
    const core::GraphOracle::Stats& hazards = graph_.stats();
    r.raw_hazards = hazards.raw_hazards;
    r.war_hazards = hazards.war_hazards;
    r.waw_hazards = hazards.waw_hazards;
    return std::move(report_);
  }

 private:
  sim::Co<void> master_process() {
    bool stream_done = false;
    std::uint64_t handled_completions = 0;
    while (!stream_done || handled_completions < report_.tasks_expected) {
      // Completions first: a real RTS answers worker signals before
      // creating new tasks (workers are the scarce resource).
      if (auto done = completions_.try_get()) {
        co_await handle_completion(*done);
        ++handled_completions;
        continue;
      }
      if (!stream_done) {
        if (auto rec = stream_->next()) {
          co_await submit(std::move(*rec));
        } else {
          stream_done = true;
        }
        continue;
      }
      // Stream drained, completions outstanding: block for the next one.
      const std::uint64_t done = co_await completions_.get();
      co_await handle_completion(done);
      ++handled_completions;
    }
  }

  sim::Co<void> busy(sim::Time t) {
    report_.stages.front().busy += t;
    co_await sim_.delay(t);
  }

  sim::Co<void> submit(trace::TaskRecord rec) {
    co_await busy(cfg_.task_create_overhead +
                  static_cast<sim::Time>(rec.params.size()) *
                      cfg_.resolve_per_param);
    const std::uint64_t key = rec.serial;
    const bool ready = graph_.submit(key, rec.params);
    in_flight_.emplace(key, InFlight{std::move(rec), sim_.now()});
    ++report_.tasks_submitted;
    if (ready) co_await push_ready(key);
  }

  sim::Co<void> push_ready(std::uint64_t key) {
    co_await busy(cfg_.schedule_overhead);
    co_await ready_.put(key);
  }

  sim::Co<void> handle_completion(std::uint64_t key) {
    auto it = in_flight_.find(key);
    if (it == in_flight_.end()) {
      throw std::logic_error("software RTS: unknown completion");
    }
    const auto params = it->second.record.params.size();
    const sim::Time submitted_at = it->second.submitted_at;
    co_await busy(static_cast<sim::Time>(params) * cfg_.finish_per_param);
    in_flight_.erase(it);
    report_.turnaround_ns.add(sim::to_ns(sim_.now() - submitted_at));
    for (const std::uint64_t next : graph_.finish(key)) {
      co_await push_ready(next);
    }
    ++report_.tasks_completed;
  }

  sim::Co<void> worker_process() {
    for (;;) {
      const std::uint64_t key = co_await ready_.get();
      co_await sim_.delay(cfg_.dequeue_overhead);
      // Look up timing; the record stays alive until completion handling.
      const auto& rec = in_flight_.at(key).record;
      const sim::Time exec = rec.exec_time;
      const std::uint64_t rd = rec.read_bytes;
      const std::uint64_t wr = rec.write_bytes;
      const core::Addr addr = rec.params.empty() ? 0 : rec.params[0].addr;
      // No Task Controller: fetch, run, write back serially.
      co_await memory_.transfer(addr, rd);
      co_await sim_.delay(exec);
      report_.total_exec_time += exec;
      co_await memory_.transfer(addr + 0x8000'0000ull, wr);
      co_await completions_.put(key);
    }
  }

  SoftwareRtsConfig cfg_;
  std::unique_ptr<trace::TaskStream> stream_;
  sim::Simulator sim_;
  hw::Memory memory_;
  core::GraphOracle graph_;
  sim::Fifo<std::uint64_t> ready_;
  sim::Fifo<std::uint64_t> completions_;
  /// A submitted task until its completion is handled.
  struct InFlight {
    trace::TaskRecord record;
    sim::Time submitted_at = 0;  ///< for turnaround accounting
  };
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  engine::RunReport report_;  ///< filled as the run measures it
};

}  // namespace

engine::RunReport run_software_rts(const SoftwareRtsConfig& config,
                                   std::unique_ptr<trace::TaskStream> stream) {
  if (!stream) throw std::invalid_argument("run_software_rts: null stream");
  config.validate();  // before any internal structure is sized from it
  SoftwareRtsSystem system(config, std::move(stream));
  return system.run();
}

}  // namespace nexuspp::rts
