#include "exec/master_resolver.hpp"

#include <stdexcept>

#include "util/invariant.hpp"

namespace nexuspp::exec {

namespace {

core::TaskPoolConfig pool_config(const MasterResolverConfig& cfg) {
  return {cfg.pool_capacity, 8, cfg.allow_dummies};
}

core::DependenceTableConfig table_config(const MasterResolverConfig& cfg) {
  return {cfg.table_capacity, cfg.kick_off_capacity, cfg.allow_dummies,
          cfg.match_mode};
}

}  // namespace

void MasterResolverConfig::validate() const {
  pool_config(*this).validate();
  table_config(*this).validate();
}

MasterResolver::MasterResolver(const MasterResolverConfig& config,
                               std::uint64_t gid_bound)
    : pool_(pool_config(config)),
      table_(table_config(config)),
      resolver_(pool_, table_),
      task_of_(gid_bound, core::kInvalidTask),
      gid_of_(config.pool_capacity, 0) {
  // One release grants each live task at most once.
  grants_.reserve(config.pool_capacity);
}

MasterResolver::SubmitSession MasterResolver::begin_submit(
    GlobalId gid, std::uint64_t serial, std::uint64_t fn,
    std::span<const core::Param> params) {
  if (gid >= task_of_.size()) {
    throw std::out_of_range("MasterResolver: gid beyond gid_bound");
  }
  SubmitSession session(this, gid, serial, fn, params);
  // A task without parameters has nothing to register: ready at once.
  session.ready_ = session.params_.empty();
  session.done_ = session.ready_;
  return session;
}

MasterResolver::Progress MasterResolver::SubmitSession::advance() {
  if (done_) return Progress::kDone;
  MasterResolver& owner = *owner_;
  // The task's descriptor doubles as the resume state: kInvalidTask means
  // "not inserted yet".
  core::TaskId& task = owner.task_of_[gid_];
  if (task == core::kInvalidTask) {
    if (!owner.pool_.can_ever_insert(params_.size())) {
      failure_ = "task " + std::to_string(serial_) + " needs " +
                 std::to_string(owner.pool_.slots_needed(params_.size())) +
                 " descriptor slots, the task pool holds " +
                 std::to_string(owner.pool_.capacity()) +
                 " (dummy tasks disabled or pool too small)";
      return Progress::kStructural;
    }
    const auto inserted = owner.pool_.insert(fn_, serial_, params_);
    if (!inserted.has_value()) return Progress::kStalled;
    task = inserted->id;
    owner.gid_of_[task] = gid_;
    // The Maestro's busy-flag protocol: grants arriving while later
    // parameters are still being registered (the master drains completions
    // between stalled retries) must not declare the task ready — the
    // finalize step below owns that decision.
    owner.pool_.set_busy(task, true);
  }

  while (param_ < params_.size()) {
    const auto result = owner.resolver_.process_param(task, params_[param_]);
    if (result.outcome == core::Resolver::ParamOutcome::kNeedSpace) {
      if (!result.structural) return Progress::kStalled;
      failure_ =
          "kick-off list overflow with dummy entries disabled "
          "(classic-Nexus structural limit)";
      return Progress::kStructural;
    }
    ++param_;
  }

  owner.pool_.set_busy(task, false);
  ready_ = owner.resolver_.finalize_new_task(task).ready;
  done_ = true;
  return Progress::kDone;
}

// NEXUS_HOT_PATH
// flatten: in this body, already large with the inline release walk, the
// inliner leaves a std::vector push_back call per grant (the one
// Resolver::grant_waiter makes into `grants_`). Flattening inlines the
// appends, growth included; CI's inline gate fails on any push_back this
// object references or emits.
[[gnu::flatten]] void MasterResolver::finish(GlobalId gid,
                                             std::vector<GlobalId>& now_ready) {
  // Checked builds abort on any unaudited allocation in this call's
  // dynamic extent. See docs/CORRECTNESS.md.
  util::NoAllocScope no_alloc("MasterResolver::finish");
  now_ready.clear();
  const core::TaskId task = task_of_[gid];
  if (task == core::kInvalidTask) return;  // param-less: nothing to release
  // Forget the descriptor, so the caller may reuse `gid` for a new task.
  task_of_[gid] = core::kInvalidTask;
  grants_.clear();
  (void)resolver_.finish(task, grants_);
  (void)pool_.free_task(task);
  // The one audited allocation on this path: amortized growth of the
  // caller-owned buffer (callers reuse one across calls).
  util::AllowAllocScope allow("finish grant append (amortized)");
  for (const core::TaskId granted : grants_) {
    now_ready.push_back(gid_of_[granted]);  // nexus-lint: allow(hot-path-alloc)
  }
}

}  // namespace nexuspp::exec
