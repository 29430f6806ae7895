#include "nexus/system.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace nexuspp::nexus {

namespace {

/// Validated config passed through so member initializers see final values.
NexusConfig validated(NexusConfig cfg) {
  cfg.validate();
  return cfg;
}

bank::BankedTableConfig banked_table_config(const NexusConfig& cfg) {
  bank::BankedTableConfig out;
  out.table = cfg.dep_table;
  out.partition.banks = cfg.banks;
  out.partition.region_bytes = cfg.bank_region_bytes;
  return out;
}

/// "C3RdyTasks"-style names. Built with += because GCC 12 emits a bogus
/// -Wrestrict for `"lit" + std::to_string(x) + "lit"` (gcc PR 105651).
std::string indexed_name(const char* prefix, std::uint32_t index,
                         const char* suffix) {
  std::string out(prefix);
  out += std::to_string(index);
  out += suffix;
  return out;
}

}  // namespace

NexusSystem::NexusSystem(NexusConfig config,
                         std::unique_ptr<trace::TaskStream> stream)
    : cfg_(validated(std::move(config))),
      stream_(std::move(stream)),
      tp_(cfg_.task_pool),
      dt_(banked_table_config(cfg_)),
      resolver_(tp_, dt_),
      memory_(sim_, cfg_.memory),
      master_bus_(sim_, cfg_.master_bus),
      bank_usage_(cfg_.banks),
      check_sched_(cfg_.banks),
      finish_sched_(cfg_.banks),
      tds_buffer_(sim_, cfg_.tds_buffer_capacity, "TDs buffer"),
      new_tasks_(sim_, cfg_.resolved_new_tasks_capacity(), "New Tasks"),
      global_ready_(sim_, cfg_.resolved_global_ready_capacity(),
                    "Global Ready Tasks"),
      worker_ids_(sim_,
                  static_cast<std::size_t>(cfg_.num_workers) *
                      cfg_.buffering_depth,
                  "Worker Cores IDs"),
      send_requests_(sim_, cfg_.num_workers),
      finish_signals_(sim_, cfg_.num_workers),
      tp_space_freed_(sim_),
      dt_space_freed_(sim_),
      timing_by_slot_(cfg_.task_pool.capacity),
      worker_exec_(cfg_.num_workers, 0) {
  if (!stream_) throw std::invalid_argument("NexusSystem: null task stream");
  expected_ = stream_->total_tasks();

  rdy_.reserve(cfg_.num_workers);
  fin_.reserve(cfg_.num_workers);
  tc_in_.reserve(cfg_.num_workers);
  tc_mid_.reserve(cfg_.num_workers);
  tc_out_.reserve(cfg_.num_workers);
  for (std::uint32_t w = 0; w < cfg_.num_workers; ++w) {
    const auto depth = static_cast<std::size_t>(cfg_.buffering_depth);
    rdy_.push_back(std::make_unique<sim::Fifo<TaskId>>(
        sim_, depth, indexed_name("C", w, "RdyTasks")));
    fin_.push_back(std::make_unique<sim::Fifo<TaskId>>(
        sim_, depth, indexed_name("C", w, "FinTasks")));
    tc_in_.push_back(std::make_unique<sim::Fifo<TaskId>>(
        sim_, depth, indexed_name("TC", w, " in")));
    tc_mid_.push_back(std::make_unique<sim::Fifo<TaskId>>(
        sim_, depth, indexed_name("TC", w, " fetched")));
    tc_out_.push_back(std::make_unique<sim::Fifo<TaskId>>(
        sim_, depth, indexed_name("TC", w, " done")));
    // "Worker Cores IDs list contains initially all worker core IDs
    // (repeated 'buffering depth' times)."
    for (std::uint32_t d = 0; d < cfg_.buffering_depth; ++d) {
      if (!worker_ids_.try_put(w)) {
        throw std::logic_error("worker id seeding overflow");
      }
    }
  }
}

void NexusSystem::fatal(std::string message) {
  if (fatal_error_.empty()) fatal_error_ = std::move(message);
}

void NexusSystem::obs_setup_tracks() {
  obs_rec_ = cfg_.timeline_recorder;
  if (obs_rec_ == nullptr) return;
  obs_trk_master_ = obs_rec_->add_track("master");
  obs_trk_write_tp_ = obs_rec_->add_track("write-tp");
  obs_trk_check_deps_ = obs_rec_->add_track("check-deps");
  obs_trk_handle_fin_ = obs_rec_->add_track("handle-finished");
  obs_trk_worker0_ = obs_rec_->add_track("worker-0");
  for (std::uint32_t w = 1; w < cfg_.num_workers; ++w) {
    (void)obs_rec_->add_track(indexed_name("worker-", w, ""));
  }
}

// --- Master core --------------------------------------------------------------

sim::Co<void> NexusSystem::master_process() {
  while (auto rec = stream_->next()) {
    const std::uint64_t serial = rec->serial;
    const sim::Time active_start = sim_.now();
    if (cfg_.enable_task_prep) {
      co_await sim_.delay(cfg_.task_prep_time);
    }
    // Handshaking word + (1 + P) descriptor words over the on-chip bus.
    co_await master_bus_.send(1 + rec->params.size());
    master_active_ += sim_.now() - active_start;
    obs_record(obs_trk_master_, obs::EventKind::kSubmit, active_start,
               sim_.now() - active_start, serial);

    const sim::Time stall_start = sim_.now();
    co_await tds_buffer_.put(std::move(*rec));
    const sim::Time stall = sim_.now() - stall_start;
    master_stall_ += stall;
    if (stall > 0) {
      obs_record(obs_trk_master_, obs::EventKind::kStall, stall_start, stall,
                 serial);
    }
    ++submitted_;
    obs_record(obs_trk_master_, obs::EventKind::kInFlight, sim_.now(), 0, 0,
               submitted_ - completed_);
  }
}

// --- Task Maestro blocks --------------------------------------------------------

sim::Co<void> NexusSystem::write_tp_process() {
  for (;;) {
    trace::TaskRecord rec = co_await tds_buffer_.get();

    if (!tp_.can_ever_insert(rec.params.size())) {
      fatal("Write TP: task " + std::to_string(rec.serial) + " needs " +
            std::to_string(tp_.slots_needed(rec.params.size())) +
            " descriptor slots but the Task Pool" +
            (cfg_.task_pool.allow_dummy_tasks
                 ? " only has " + std::to_string(tp_.capacity())
                 : " does not support dummy tasks (classic Nexus limit)"));
      co_return;
    }

    for (;;) {
      auto ins = tp_.insert(rec.fn, rec.serial, rec.params);
      if (ins.has_value()) {
        const sim::Time t =
            access_time(ins->cost) + cycles(cfg_.block_overhead_cycles);
        write_tp_busy_ += t;
        const sim::Time seg_start = sim_.now();
        co_await sim_.delay(t);
        obs_record(obs_trk_write_tp_, obs::EventKind::kSubmit, seg_start, t,
                   rec.serial);
        timing_by_slot_[ins->id] =
            SlotTiming{rec.exec_time, rec.read_bytes, rec.write_bytes,
                       rec.params.empty() ? 0 : rec.params.front().addr,
                       sim_.now()};
        co_await new_tasks_.put(ins->id);
        break;
      }
      const sim::Time stall_start = sim_.now();
      co_await tp_space_freed_.wait();
      const sim::Time stall = sim_.now() - stall_start;
      write_tp_stall_ += stall;
      obs_record(obs_trk_write_tp_, obs::EventKind::kStall, stall_start,
                 stall, rec.serial);
    }
  }
}

sim::Co<void> NexusSystem::check_deps_process() {
  for (;;) {
    const TaskId id = co_await new_tasks_.get();
    // Mark the descriptor as under processing: Handle Finished may resolve
    // dependencies of this task concurrently but must leave the readiness
    // decision to this block (the paper's `busy` flag).
    tp_.set_busy(id, true);
    const std::uint64_t serial = tp_.serial(id);
    auto rp = tp_.read_params(id);
    {
      const sim::Time t =
          access_time(rp.cost) + cycles(cfg_.block_overhead_cycles);
      check_deps_busy_ += t;
      const sim::Time seg_start = sim_.now();
      co_await sim_.delay(t);
      obs_record(obs_trk_check_deps_, obs::EventKind::kSubmit, seg_start, t,
                 serial);
    }
    // One arbiter round per task: parameters resolve in parallel across
    // their home banks, serializing only where they collide on a bank. The
    // block advances by the round-completion delta each parameter adds.
    check_sched_.reset();
    for (const auto& param : rp.params) {
      for (;;) {
        auto pr = resolver_.process_param(id, param);
        sim::Time delta = 0;
        for (const auto& bc : pr.costs) {
          delta += check_sched_.charge(bc.bank, access_time(bc.cost),
                                       bank_usage_);
        }
        check_deps_busy_ += delta;
        const sim::Time seg_start = sim_.now();
        co_await sim_.delay(delta);
        obs_record(obs_trk_check_deps_, obs::EventKind::kSubmit, seg_start,
                   delta, serial);
        if (pr.outcome != core::Resolver::ParamOutcome::kNeedSpace) break;
        if (pr.structural) {
          fatal("Check Deps: kick-off list overflow without dummy entries "
                "(classic Nexus limit) while queueing task " +
                std::to_string(tp_.serial(id)));
          co_return;
        }
        const sim::Time stall_start = sim_.now();
        co_await dt_space_freed_.wait();
        const sim::Time stall = sim_.now() - stall_start;
        check_deps_stall_ += stall;
        obs_record(obs_trk_check_deps_, obs::EventKind::kStall, stall_start,
                   stall, serial);
      }
    }
    // Readiness check and busy-clear happen in one event-loop slice (no
    // suspension in between), so exactly one of Check Deps / Handle
    // Finished emits the task as ready.
    auto fin = resolver_.finalize_new_task(id);
    tp_.set_busy(id, false);
    {
      const sim::Time t = access_time(fin.cost);
      check_deps_busy_ += t;
      const sim::Time seg_start = sim_.now();
      co_await sim_.delay(t);
      obs_record(obs_trk_check_deps_, obs::EventKind::kSubmit, seg_start, t,
                 serial);
    }
    if (fin.ready) {
      // Runnable at registration: no granting predecessor.
      obs_record(obs_trk_check_deps_, obs::EventKind::kReady, sim_.now(), 0,
                 serial, obs::kNoPred);
      co_await global_ready_.put(id);
      obs_record(obs_trk_check_deps_, obs::EventKind::kReadyDepth, sim_.now(),
                 0, 0, global_ready_.size());
    }
  }
}

sim::Co<void> NexusSystem::schedule_process() {
  for (;;) {
    const TaskId id = co_await global_ready_.get();
    const std::uint32_t worker = co_await worker_ids_.get();
    const sim::Time t = cycles(cfg_.schedule_cycles);
    schedule_busy_ += t;
    co_await sim_.delay(t);
    if (!rdy_[worker]->try_put(id)) {
      throw std::logic_error("RdyTasks overflow: token protocol violated");
    }
    // The 1-bit list_written event reaches the TC, whose Get TD block
    // requests the descriptor from the Send TDs block.
    send_requests_.raise(worker);
  }
}

sim::Co<void> NexusSystem::send_tds_process() {
  for (;;) {
    const std::size_t worker = co_await send_requests_.next();
    const auto id_opt = rdy_[worker]->try_get();
    if (!id_opt.has_value()) {
      throw std::logic_error("Send TDs: request without a ready task");
    }
    const TaskId id = *id_opt;
    // Read the descriptor (primary + dummy slots) and stream it to the TC.
    const std::uint64_t slot_reads = 1 + tp_.dummy_count(id);
    const std::uint64_t words = 1 + tp_.param_count(id);
    const sim::Time t =
        cycles(slot_reads * cfg_.onchip_access_cycles +
               words * cfg_.td_send_cycles_per_word +
               cfg_.block_overhead_cycles);
    send_tds_busy_ += t;
    co_await sim_.delay(t);
    if (!fin_[worker]->try_put(id) || !tc_in_[worker]->try_put(id)) {
      throw std::logic_error("TC buffer overflow: token protocol violated");
    }
  }
}

sim::Co<void> NexusSystem::handle_finished_process() {
  // The block's grant buffer, reused across tasks (one instance of this
  // block exists; the list is consumed before the next task is taken).
  std::vector<TaskId> now_ready;
  for (;;) {
    const std::size_t worker = co_await finish_signals_.next();
    const auto id_opt = fin_[worker]->try_get();
    if (!id_opt.has_value()) {
      throw std::logic_error("Handle Finished: signal without a task");
    }
    const TaskId id = *id_opt;
    // Serial must be read before free_task below invalidates the slot.
    const std::uint64_t serial = tp_.serial(id);
    turnaround_ns_.add(
        sim::to_ns(sim_.now() - timing_by_slot_[id].submitted_at));

    // One arbiter round per finished task: the release walks spread over
    // their banks, then one delay (descriptor reads plus the round's max
    // horizon plus the descriptor free). The descriptor is walked in place,
    // charged one read per slot like read_params.
    core::Cost read_cost;
    read_cost.reads = 1 + tp_.dummy_count(id);
    finish_sched_.reset();
    now_ready.clear();
    sim::Time round = 0;
    for (TaskId slot = id; slot != core::kInvalidTask;
         slot = tp_.slot_next_dummy(slot)) {
      for (const auto& param : tp_.slot_params(slot)) {
        for (const auto& bc : resolver_.finish_param(id, param, now_ready)) {
          round += finish_sched_.charge(bc.bank, access_time(bc.cost),
                                        bank_usage_);
        }
      }
    }
    auto free_cost = tp_.free_task(id);
    const sim::Time t = access_time(read_cost) + round +
                        access_time(free_cost) +
                        cycles(cfg_.block_overhead_cycles);
    handle_finished_busy_ += t;
    const sim::Time seg_start = sim_.now();
    co_await sim_.delay(t);
    obs_record(obs_trk_handle_fin_, obs::EventKind::kRelease, seg_start, t,
               serial);
    obs_record(obs_trk_handle_fin_, obs::EventKind::kFinish, sim_.now(), 0,
               serial);

    ++completed_;
    obs_record(obs_trk_handle_fin_, obs::EventKind::kInFlight, sim_.now(), 0,
               0, submitted_ - completed_);
    tp_space_freed_.notify_all();
    dt_space_freed_.notify_all();
    // Return the worker token before publishing ready tasks so Schedule can
    // always drain the Global Ready list (no token/space cycle).
    co_await worker_ids_.put(static_cast<std::uint32_t>(worker));
    for (const TaskId ready : now_ready) {
      // Grant edge: this finish made `ready` runnable.
      obs_record(obs_trk_handle_fin_, obs::EventKind::kReady, sim_.now(), 0,
                 tp_.serial(ready), serial);
      co_await global_ready_.put(ready);
    }
    if (!now_ready.empty()) {
      obs_record(obs_trk_handle_fin_, obs::EventKind::kReadyDepth, sim_.now(),
                 0, 0, global_ready_.size());
    }
  }
}

// --- Task Controller pipeline ----------------------------------------------------

sim::Co<void> NexusSystem::tc_get_inputs_process(std::uint32_t worker) {
  for (;;) {
    const TaskId id = co_await tc_in_[worker]->get();
    const SlotTiming timing = timing_by_slot_[id];
    co_await memory_.transfer(timing.addr, timing.read_bytes);
    co_await tc_mid_[worker]->put(id);
  }
}

sim::Co<void> NexusSystem::tc_run_process(std::uint32_t worker) {
  for (;;) {
    const TaskId id = co_await tc_mid_[worker]->get();
    const SlotTiming timing = timing_by_slot_[id];
    const sim::Time run_start = sim_.now();
    co_await sim_.delay(timing.exec);
    worker_exec_[worker] += timing.exec;
    obs_record(obs_trk_worker0_ + worker, obs::EventKind::kRun, run_start,
               timing.exec, tp_.serial(id));
    co_await tc_out_[worker]->put(id);
  }
}

sim::Co<void> NexusSystem::tc_put_outputs_process(std::uint32_t worker) {
  for (;;) {
    const TaskId id = co_await tc_out_[worker]->get();
    const SlotTiming timing = timing_by_slot_[id];
    co_await memory_.transfer(timing.addr + 0x8000'0000ull,
                              timing.write_bytes);
    // 1-bit task-finished notification to the Task Maestro.
    finish_signals_.raise(worker);
  }
}

// --- Orchestration ---------------------------------------------------------------

SystemReport NexusSystem::run() {
  if (ran_) throw std::logic_error("NexusSystem::run() is single-use");
  ran_ = true;

  obs_setup_tracks();
  sim_.spawn(master_process(), "master");
  sim_.spawn(write_tp_process(), "write-tp");
  sim_.spawn(check_deps_process(), "check-deps");
  sim_.spawn(schedule_process(), "schedule");
  sim_.spawn(send_tds_process(), "send-tds");
  sim_.spawn(handle_finished_process(), "handle-finished");
  for (std::uint32_t w = 0; w < cfg_.num_workers; ++w) {
    sim_.spawn(tc_get_inputs_process(w), indexed_name("tc-fetch-", w, ""));
    sim_.spawn(tc_run_process(w), indexed_name("tc-run-", w, ""));
    sim_.spawn(tc_put_outputs_process(w), indexed_name("tc-put-", w, ""));
  }

  const sim::Time end = sim_.run();

  SystemReport report;
  report.makespan = end;
  report.tasks_expected = expected_;
  report.tasks_submitted = submitted_;
  report.tasks_completed = completed_;
  report.deadlocked = completed_ != expected_;
  if (report.deadlocked) {
    std::ostringstream os;
    if (!fatal_error_.empty()) {
      os << fatal_error_;
    } else {
      os << "no progress possible: submitted " << submitted_ << "/"
         << expected_ << ", completed " << completed_
         << "; TP used " << tp_.used_slot_count() << "/" << tp_.capacity()
         << ", DT live " << dt_.live_slot_count() << "/"
         << dt_.bank_count() * dt_.bank(0).capacity();
      if (dt_.bank_count() > 1) os << " over " << dt_.bank_count() << " banks";
      os << ", ready queue " << global_ready_.size() << ", new tasks "
         << new_tasks_.size() << ", TDs buffered " << tds_buffer_.size();
    }
    report.diagnosis = os.str();
  }

  report.master_active = master_active_;
  report.master_stall = master_stall_;
  report.write_tp_busy = write_tp_busy_;
  report.write_tp_stall = write_tp_stall_;
  report.check_deps_busy = check_deps_busy_;
  report.check_deps_stall = check_deps_stall_;
  report.schedule_busy = schedule_busy_;
  report.send_tds_busy = send_tds_busy_;
  report.handle_finished_busy = handle_finished_busy_;

  for (const sim::Time t : worker_exec_) report.total_exec_time += t;
  if (end > 0) {
    report.avg_core_utilization =
        static_cast<double>(report.total_exec_time) /
        (static_cast<double>(end) * cfg_.num_workers);
  }

  report.turnaround_ns = turnaround_ns_;
  report.ready_queue_peak = global_ready_.stats().max_occupancy;
  report.tp_stats = tp_.stats();
  report.dt_stats = dt_.aggregated_stats();
  report.resolver_stats = resolver_.aggregated_stats();
  report.mem_stats = memory_.stats();
  report.bus_stats = master_bus_.stats();
  report.dt_max_live = report.dt_stats.max_live_slots;
  report.sim_events = sim_.events_executed();

  report.banks = cfg_.banks;
  report.bank_conflict_wait = bank_usage_.total_conflict_wait();
  report.bank_busy_imbalance = bank_usage_.busy_imbalance();
  report.per_bank_busy = bank_usage_.busy();
  report.per_bank_conflict = bank_usage_.conflict();
  report.per_bank_ops = bank_usage_.ops();
  report.bank_peak_live = dt_.peak_bank_live();
  report.bank_occupancy_imbalance = dt_.occupancy_imbalance();
  report.per_bank_max_live.reserve(dt_.bank_count());
  for (std::uint32_t b = 0; b < dt_.bank_count(); ++b) {
    report.per_bank_max_live.push_back(dt_.bank(b).stats().max_live_slots);
  }
  return report;
}

SystemReport run_system(const NexusConfig& config,
                        std::unique_ptr<trace::TaskStream> stream,
                        bool require_success) {
  NexusSystem system(config, std::move(stream));
  SystemReport report = system.run();
  if (require_success && report.deadlocked) {
    throw std::runtime_error("Nexus++ simulation deadlocked: " +
                             report.diagnosis);
  }
  return report;
}

}  // namespace nexuspp::nexus
