#include "core/resolver.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

namespace nexuspp::core {

Resolver::ParamResult Resolver::process_param(TaskId id, const Param& param) {
  return dt_->match_mode() == MatchMode::kRange
             ? process_param_range(id, param)
             : process_param_base(id, param);
}

Resolver::ParamResult Resolver::process_param_base(TaskId id,
                                                   const Param& param) {
  ParamResult out;
  const bool is_reader_only = param.mode == AccessMode::kIn;

  auto lookup = dt_->lookup(param.addr);
  out.cost += lookup.cost;

  if (!lookup.index.has_value()) {
    // (1) Address not tracked: insert and grant.
    auto ins = dt_->insert(param.addr, param.size, !is_reader_only);
    out.cost += ins.cost;
    if (!ins.index.has_value()) {
      ++stats_.stalls;
      out.outcome = ParamOutcome::kNeedSpace;
      return out;
    }
    if (is_reader_only) {
      out.cost += dt_->set_readers(*ins.index, 1);  // (2)
    }
    ++stats_.granted;
    out.outcome = ParamOutcome::kGranted;
    return out;
  }

  const auto idx = *lookup.index;
  if (is_reader_only) {
    // (3) New task only reads the address.
    if (!dt_->is_out(idx) && !dt_->writer_waits(idx)) {
      out.cost += dt_->add_reader(idx);  // (4) RAR: share the address
      ++stats_.granted;
      out.outcome = ParamOutcome::kGranted;
      return out;
    }
    // (4') RAW (writer active) or a writer already waits (cannot overtake).
    auto app = dt_->kickoff_append(idx, id);
    out.cost += app.cost;
    if (!app.ok) {
      ++stats_.stalls;
      out.outcome = ParamOutcome::kNeedSpace;
      out.structural = app.structural;
      return out;
    }
    out.cost += tp_->increment_dc(id);
    ++stats_.queued;
    ++stats_.raw_hazards;
    out.outcome = ParamOutcome::kQueued;
    return out;
  }

  // (3') New task writes the address: always queues behind current users.
  auto app = dt_->kickoff_append(idx, id);
  out.cost += app.cost;
  if (!app.ok) {
    ++stats_.stalls;
    out.outcome = ParamOutcome::kNeedSpace;
    out.structural = app.structural;
    return out;
  }
  out.cost += tp_->increment_dc(id);
  if (!dt_->is_out(idx)) {
    // WAR: readers are active; flag that a writer waits behind them.
    out.cost += dt_->set_writer_waits(idx, true);
    ++stats_.war_hazards;
  } else {
    ++stats_.waw_hazards;
  }
  ++stats_.queued;
  out.outcome = ParamOutcome::kQueued;
  return out;
}

Resolver::RangePrecheck Resolver::precheck_range(TaskId id,
                                                 const Param& param) const {
  auto overlap = dt_->overlapping(param.addr, param.size);
  RangePrecheck out;
  out.conflicts = std::move(overlap.indices);
  out.cost = overlap.cost;
  // Conflicting predecessors: overlapping accesses where either side
  // writes. This task's own earlier parameters never conflict with it.
  const bool is_writer = writes(param.mode);
  std::erase_if(out.conflicts, [&](DependenceTable::Index idx) {
    return dt_->owner_of(idx) == id || (!is_writer && !dt_->is_out(idx));
  });
  // One slot for this access's own entry, plus at most one dummy per full
  // kick-off list.
  std::uint32_t slots_needed = 1;
  for (const auto idx : out.conflicts) {
    const auto need = dt_->kickoff_append_need(idx);
    if (need.structural_fail) {
      out.structural = true;
      return out;
    }
    if (need.needs_slot) ++slots_needed;
  }
  out.fits = dt_->free_slot_count() >= slots_needed;
  return out;
}

Resolver::ParamResult Resolver::process_param_range(TaskId id,
                                                    const Param& param) {
  ParamResult out;
  const bool is_writer = writes(param.mode);

  // Precheck so the multi-append below cannot fail halfway.
  const auto pre = precheck_range(id, param);
  out.cost += pre.cost;
  if (!pre.fits) {
    ++stats_.stalls;
    out.outcome = ParamOutcome::kNeedSpace;
    out.structural = pre.structural;
    return out;
  }

  auto ins = dt_->insert(param.addr, param.size, is_writer, id);
  out.cost += ins.cost;
  if (!ins.index.has_value()) {
    throw std::logic_error(
        "Resolver: insert failed after range-mode slot precheck");
  }

  for (const auto idx : pre.conflicts) {
    auto app = dt_->kickoff_append(idx, id);
    out.cost += app.cost;
    if (!app.ok) {
      throw std::logic_error(
          "Resolver: kick-off append failed after range-mode precheck");
    }
    out.cost += tp_->increment_dc(id);
    if (!is_writer) {
      ++stats_.raw_hazards;
    } else if (dt_->is_out(idx)) {
      ++stats_.waw_hazards;
    } else {
      ++stats_.war_hazards;
    }
  }

  if (pre.conflicts.empty()) {
    ++stats_.granted;
    out.outcome = ParamOutcome::kGranted;
  } else {
    ++stats_.queued;
    out.outcome = ParamOutcome::kQueued;
  }
  return out;
}

Resolver::FinalizeResult Resolver::finalize_new_task(TaskId id) {
  FinalizeResult out;
  out.cost.reads += 1;  // read the task's DC
  out.ready = tp_->dependence_count(id) == 0;
  return out;
}

Resolver::SubmitResult Resolver::submit(TaskId id) {
  SubmitResult out;
  out.cost.reads += 1 + tp_->dummy_count(id);  // the descriptor's slots
  for (TaskId slot = id; slot != kInvalidTask;
       slot = tp_->slot_next_dummy(slot)) {
    for (const auto& param : tp_->slot_params(slot)) {
      auto pr = process_param(id, param);
      out.cost += pr.cost;
      if (pr.outcome == ParamOutcome::kNeedSpace) {
        out.stalled = true;
        return out;
      }
      ++out.params_done;
    }
  }
  auto fin = finalize_new_task(id);
  out.cost += fin.cost;
  out.ready = fin.ready;
  return out;
}

void Resolver::grant_waiter(TaskId task, Cost& cost,
                            std::vector<TaskId>& now_ready) {
  const auto dec = tp_->decrement_dc(task);
  cost += dec.cost;
  // The paper's `busy` flag: while Check Deps still processes this task's
  // remaining parameters, Handle Finished must not declare it ready — the
  // counter could transiently hit zero before later parameters add new
  // dependencies. Check Deps emits readiness itself when it finalizes.
  if (dec.remaining == 0 && !tp_->busy(task)) now_ready.push_back(task);
}

void Resolver::release_as_reader(Addr addr, Cost& cost,
                                 std::vector<TaskId>& now_ready) {
  auto lookup = dt_->lookup(addr);
  cost += lookup.cost;
  if (!lookup.index.has_value()) {
    throw std::logic_error("Resolver::finish: reader address not tracked");
  }
  auto idx = *lookup.index;
  cost += dt_->remove_reader(idx);
  if (dt_->readers(idx) != 0) return;

  if (!dt_->writer_waits(idx)) {
    // Last reader gone and nobody waits: the address leaves the table.
    assert(dt_->kickoff_empty(idx));
    cost += dt_->erase(idx);
    return;
  }
  // A writer waits (WAR). It is the oldest kick-off entry; grant it.
  auto pop = dt_->kickoff_pop(idx);
  cost += pop.cost;
  idx = pop.parent;
  if (!pop.task.has_value()) {
    throw std::logic_error("Resolver::finish: ww set but kick-off empty");
  }
  cost += dt_->set_is_out(idx, true);
  cost += dt_->set_writer_waits(idx, false);
  grant_waiter(*pop.task, cost, now_ready);
}

void Resolver::release_as_writer(Addr addr, Cost& cost,
                                 std::vector<TaskId>& now_ready) {
  auto lookup = dt_->lookup(addr);
  cost += lookup.cost;
  if (!lookup.index.has_value()) {
    throw std::logic_error("Resolver::finish: writer address not tracked");
  }
  auto idx = *lookup.index;
  assert(dt_->is_out(idx));

  if (dt_->kickoff_empty(idx)) {
    cost += dt_->erase(idx);
    return;
  }

  // Grant waiting readers until a writer (or the end of the list).
  std::uint32_t granted_readers = 0;
  for (;;) {
    auto peek = dt_->kickoff_front(idx);
    cost += peek.cost;
    if (!peek.task.has_value()) break;  // list drained

    auto mode = tp_->mode_for(*peek.task, addr);
    cost += mode.cost;
    if (!mode.mode.has_value()) {
      throw std::logic_error(
          "Resolver::finish: kick-off task has no parameter for address");
    }

    if (*mode.mode == AccessMode::kIn) {
      auto pop = dt_->kickoff_pop(idx);
      cost += pop.cost;
      idx = pop.parent;
      ++granted_readers;
      grant_waiter(*pop.task, cost, now_ready);
      continue;
    }

    // Front task wants to write.
    if (granted_readers == 0) {
      // WAW: no readers in between — the writer takes over directly.
      auto pop = dt_->kickoff_pop(idx);
      cost += pop.cost;
      idx = pop.parent;
      grant_waiter(*pop.task, cost, now_ready);
      // is_out stays true for the new writer.
      return;
    }
    // WAR: the writer must wait for the readers just granted.
    cost += dt_->set_writer_waits(idx, true);
    break;
  }

  cost += dt_->set_is_out(idx, false);
  cost += dt_->set_readers(idx, granted_readers);
  if (granted_readers == 0 && dt_->kickoff_empty(idx) &&
      !dt_->writer_waits(idx)) {
    // Defensive: an empty drain (cannot normally happen — the list was
    // non-empty and only readers/writers leave it above).
    ++stats_.defensive_drains;
    cost += dt_->erase(idx);
  }
}

void Resolver::release_owned(TaskId id, const Param& param, Cost& cost,
                             std::vector<TaskId>& now_ready) {
  auto lookup = dt_->lookup_owned(param.addr, id);
  cost += lookup.cost;
  if (!lookup.index.has_value()) {
    throw std::logic_error("Resolver::finish: owned access not tracked");
  }
  auto idx = *lookup.index;
  // Every queued dependant was waiting for exactly this access to retire:
  // drain the whole list, then erase the entry.
  for (;;) {
    auto pop = dt_->kickoff_pop(idx);
    cost += pop.cost;
    idx = pop.parent;
    if (!pop.task.has_value()) break;
    grant_waiter(*pop.task, cost, now_ready);
  }
  cost += dt_->erase(idx);
}

Cost Resolver::finish_param(TaskId id, const Param& param,
                            std::vector<TaskId>& now_ready) {
  Cost cost;
  if (dt_->match_mode() == MatchMode::kRange) {
    release_owned(id, param, cost, now_ready);
  } else if (param.mode == AccessMode::kIn) {
    release_as_reader(param.addr, cost, now_ready);
  } else {
    release_as_writer(param.addr, cost, now_ready);
  }
  return cost;
}

// NEXUS_HOT_PATH
Cost Resolver::finish(TaskId id, std::vector<TaskId>& now_ready) {
  Cost cost;
  cost.reads += 1 + tp_->dummy_count(id);  // the descriptor's slots
  for (TaskId slot = id; slot != kInvalidTask;
       slot = tp_->slot_next_dummy(slot)) {
    for (const auto& param : tp_->slot_params(slot)) {
      cost += finish_param(id, param, now_ready);
    }
  }
  return cost;
}

Resolver::FinishResult Resolver::finish(TaskId id) {
  FinishResult out;
  out.cost = finish(id, out.now_ready);
  return out;
}

}  // namespace nexuspp::core
