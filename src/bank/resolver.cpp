#include "bank/resolver.hpp"

#include <stdexcept>

namespace nexuspp::bank {

namespace {

core::Cost& cost_slot(std::vector<BankedResolver::BankCost>& costs,
                      std::uint32_t bank) {
  for (auto& c : costs) {
    if (c.bank == bank) return c.cost;
  }
  costs.push_back({bank, {}});
  return costs.back().cost;
}

}  // namespace

BankedResolver::BankedResolver(core::TaskPool& pool, BankedTable& table)
    : tp_(&pool), table_(&table) {
  per_bank_.reserve(table_->bank_count());
  for (std::uint32_t b = 0; b < table_->bank_count(); ++b) {
    per_bank_.emplace_back(pool, table_->bank(b));
  }
  costs_.reserve(table_->bank_count());
}

BankedResolver::ParamResult BankedResolver::process_param(TaskId id,
                                                          const Param& param) {
  costs_.clear();
  ParamResult out = resolve_param(id, param);
  out.costs = costs_;
  return out;
}

BankedResolver::ParamResult BankedResolver::resolve_param(TaskId id,
                                                          const Param& param) {
  ParamResult out;
  const auto& part = table_->partition();

  if (!part.param_spans_banks(param, table_->match_mode())) {
    // Single home bank: the monolithic path, verbatim.
    const auto b = part.bank_of(param.addr);
    auto r = per_bank_[b].process_param(id, param);
    out.outcome = r.outcome;
    out.structural = r.structural;
    costs_.push_back({b, r.cost});
    return out;
  }

  // Spanning registration (range mode): two-phase, canonical bank order.
  const auto touched = part.banks_for(param.addr, param.size);

  // Phase one — precheck slot demand and structural failures per bank.
  for (const auto b : touched) {
    const auto pre = per_bank_[b].precheck_range(id, param);
    cost_slot(costs_, b) += pre.cost;
    if (!pre.fits) {
      out.outcome = core::Resolver::ParamOutcome::kNeedSpace;
      out.structural = pre.structural;
      return out;
    }
  }

  // Phase two — commit. Banks share no slots, so the prechecks cannot be
  // invalidated by earlier commits of this same phase.
  bool queued = false;
  for (const auto b : touched) {
    auto r = per_bank_[b].process_param(id, param);
    if (r.outcome == core::Resolver::ParamOutcome::kNeedSpace) {
      throw std::logic_error(
          "BankedResolver: commit failed after two-phase precheck");
    }
    cost_slot(costs_, b) += r.cost;
    queued = queued || r.outcome == core::Resolver::ParamOutcome::kQueued;
  }
  out.outcome = queued ? core::Resolver::ParamOutcome::kQueued
                       : core::Resolver::ParamOutcome::kGranted;
  return out;
}

core::Resolver::FinalizeResult BankedResolver::finalize_new_task(TaskId id) {
  return per_bank_.front().finalize_new_task(id);
}

std::span<const BankedResolver::BankCost> BankedResolver::finish_param(
    TaskId id, const Param& param, std::vector<TaskId>& now_ready) {
  costs_.clear();
  const auto& part = table_->partition();
  auto release_in = [&](std::uint32_t b) {
    costs_.push_back({b, per_bank_[b].finish_param(id, param, now_ready)});
  };
  if (!part.param_spans_banks(param, table_->match_mode())) {
    release_in(part.bank_of(param.addr));
  } else {
    for (const auto b : part.banks_for(param.addr, param.size)) release_in(b);
  }
  return costs_;
}

core::Resolver::SubmitResult BankedResolver::submit(TaskId id) {
  core::Resolver::SubmitResult out;
  out.cost.reads += 1 + tp_->dummy_count(id);  // the descriptor's slots
  for (TaskId slot = id; slot != core::kInvalidTask;
       slot = tp_->slot_next_dummy(slot)) {
    for (const auto& param : tp_->slot_params(slot)) {
      auto pr = process_param(id, param);
      for (const auto& bc : pr.costs) out.cost += bc.cost;
      if (pr.outcome == core::Resolver::ParamOutcome::kNeedSpace) {
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

core::Resolver::FinishResult BankedResolver::finish(TaskId id) {
  core::Resolver::FinishResult out;
  out.cost.reads += 1 + tp_->dummy_count(id);  // the descriptor's slots
  for (TaskId slot = id; slot != core::kInvalidTask;
       slot = tp_->slot_next_dummy(slot)) {
    for (const auto& param : tp_->slot_params(slot)) {
      for (const auto& bc : finish_param(id, param, out.now_ready)) {
        out.cost += bc.cost;
      }
    }
  }
  return out;
}

core::Resolver::Stats BankedResolver::aggregated_stats() const {
  core::Resolver::Stats out;
  for (const auto& r : per_bank_) {
    const auto& s = r.stats();
    out.queued += s.queued;
    out.war_hazards += s.war_hazards;
    out.waw_hazards += s.waw_hazards;
    out.raw_hazards += s.raw_hazards;
    out.defensive_drains += s.defensive_drains;
  }
  return out;
}

}  // namespace nexuspp::bank
