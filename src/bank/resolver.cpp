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
}

BankedResolver::ParamResult BankedResolver::process_param(TaskId id,
                                                          const Param& param) {
  ParamResult out;
  const auto& part = table_->partition();

  if (!part.param_spans_banks(param, table_->match_mode())) {
    // Single home bank: the monolithic path, verbatim (allocation-free).
    const auto b = part.bank_of(param.addr);
    auto r = per_bank_[b].process_param(id, param);
    out.outcome = r.outcome;
    out.structural = r.structural;
    out.costs.push_back({b, r.cost});
    return out;
  }

  // Spanning registration (range mode): two-phase, canonical bank order.
  const auto touched = part.banks_for(param.addr, param.size);
  ++banked_stats_.two_phase_registrations;
  const bool is_writer = core::writes(param.mode);

  // Phase one — precheck slot demand and structural failures per bank.
  for (const auto b : touched) {
    const auto& dt = table_->bank(b);
    auto overlap = dt.overlapping(param.addr, param.size);
    cost_slot(out.costs, b) += overlap.cost;
    std::uint32_t slots_needed = 1;  // this access's own entry
    for (const auto idx : overlap.indices) {
      if (dt.owner_of(idx) == id) continue;
      if (!is_writer && !dt.is_out(idx)) continue;
      const auto need = dt.kickoff_append_need(idx);
      if (need.structural_fail) {
        ++banked_stats_.precheck_stalls;
        out.outcome = core::Resolver::ParamOutcome::kNeedSpace;
        out.structural = true;
        return out;
      }
      if (need.needs_slot) ++slots_needed;
    }
    if (dt.free_slot_count() < slots_needed) {
      ++banked_stats_.precheck_stalls;
      out.outcome = core::Resolver::ParamOutcome::kNeedSpace;
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
    cost_slot(out.costs, b) += r.cost;
    queued = queued || r.outcome == core::Resolver::ParamOutcome::kQueued;
  }
  out.outcome = queued ? core::Resolver::ParamOutcome::kQueued
                       : core::Resolver::ParamOutcome::kGranted;
  return out;
}

core::Resolver::FinalizeResult BankedResolver::finalize_new_task(TaskId id) {
  return per_bank_.front().finalize_new_task(id);
}

std::vector<BankedResolver::BankCost> BankedResolver::finish_param(
    TaskId id, const Param& param, std::vector<TaskId>& now_ready) {
  std::vector<BankCost> out;
  const auto& part = table_->partition();
  auto release_in = [&](std::uint32_t b) {
    out.push_back({b, per_bank_[b].finish_param(id, param, now_ready)});
  };
  if (!part.param_spans_banks(param, table_->match_mode())) {
    release_in(part.bank_of(param.addr));
    return out;
  }
  for (const auto b : part.banks_for(param.addr, param.size)) release_in(b);
  return out;
}

core::Resolver::SubmitResult BankedResolver::submit(TaskId id) {
  core::Resolver::SubmitResult out;
  auto rp = tp_->read_params(id);
  out.cost += rp.cost;
  for (const auto& param : rp.params) {
    auto pr = process_param(id, param);
    for (const auto& bc : pr.costs) out.cost += bc.cost;
    if (pr.outcome == core::Resolver::ParamOutcome::kNeedSpace) {
      out.stalled = true;
      return out;
    }
    ++out.params_done;
  }
  auto fin = finalize_new_task(id);
  out.cost += fin.cost;
  out.ready = fin.ready;
  return out;
}

core::Resolver::FinishResult BankedResolver::finish(TaskId id) {
  core::Resolver::FinishResult out;
  auto rp = tp_->read_params(id);
  out.cost += rp.cost;
  for (const auto& param : rp.params) {
    for (const auto& bc : finish_param(id, param, out.now_ready)) {
      out.cost += bc.cost;
    }
  }
  return out;
}

core::Resolver::Stats BankedResolver::aggregated_stats() const {
  core::Resolver::Stats out;
  for (const auto& r : per_bank_) {
    const auto& s = r.stats();
    out.granted += s.granted;
    out.queued += s.queued;
    out.stalls += s.stalls;
    out.war_hazards += s.war_hazards;
    out.waw_hazards += s.waw_hazards;
    out.raw_hazards += s.raw_hazards;
    out.defensive_drains += s.defensive_drains;
  }
  out.stalls += banked_stats_.precheck_stalls;
  return out;
}

}  // namespace nexuspp::bank
