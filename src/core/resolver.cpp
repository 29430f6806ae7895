#include "core/resolver.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace nexuspp::core {

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

Resolver::FinishResult Resolver::finish(TaskId id) {
  FinishResult out;
  out.cost = finish(id, out.now_ready);
  return out;
}

}  // namespace nexuspp::core
