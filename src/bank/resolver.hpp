#pragma once
// BankedResolver: dependency resolution over N dependence-table banks.
//
// Each bank gets its own core::Resolver (sharing the one Task Pool), so
// within a bank the Check Deps / Handle Finished semantics — and the Cost
// receipts — are *literally* the monolithic implementation. This layer only
// decides which bank(s) a parameter goes to and keeps multi-bank operations
// atomic:
//
//   base-address mode — a parameter belongs to exactly one bank (the home
//   bank of its base address, BankPartition::bank_of). Equal bases always
//   share a bank, so resolution degenerates to a pure dispatch.
//
//   range mode, single touched bank — dispatch, same as above.
//
//   range mode, interval spanning several home regions — the access
//   registers an owner-tagged entry in *every* touched bank and queues
//   behind the conflicting entries found in each (the multi-bank
//   registration rule). Overlapping intervals always share the overlap
//   bytes' home bank, so no hazard is lost; an access pair sharing several
//   banks queues (and later drains) once per shared bank, which double-
//   counts the dependence — harmlessly, because finish_param walks the same
//   touched-bank set, so every DC increment is matched by exactly one
//   decrement from the same bank. Per-finish readiness is therefore
//   identical to the monolithic resolver's; only the hazard *census* grows
//   with the span (documented in the bank-scaling bench).
//
// Two-phase registration (deadlock freedom + atomicity): a spanning
// registration first *prechecks* every touched bank in canonical (ascending
// bank id) order — the bank resolver's own precheck_range: overlap scan,
// kick-off append dry-runs, free-slot demand — and only then *commits*,
// again in canonical order. Banks share no slots, so a passed precheck
// cannot be invalidated by commits to other banks: a kNeedSpace result
// always leaves every bank untouched, making stall-and-retry safe, and the
// fixed canonical order means concurrent multi-bank rounds can never wait
// on each other in a cycle. The precheck
// pass re-reads what the commit pass reads, and both Cost receipts are
// returned — the honest hardware price of cross-bank atomicity.

#include <cstdint>
#include <span>
#include <vector>

#include "bank/banked_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"

namespace nexuspp::bank {

class BankedResolver {
 public:
  using TaskId = core::TaskId;
  using Param = core::Param;

  BankedResolver(core::TaskPool& pool, BankedTable& table);

  /// Table accesses charged to one bank; the timed layer stacks these on
  /// per-bank horizons (parallel across banks, serial within one).
  struct BankCost {
    std::uint32_t bank = 0;
    core::Cost cost;
  };

  struct ParamResult {
    core::Resolver::ParamOutcome outcome =
        core::Resolver::ParamOutcome::kGranted;
    bool structural = false;
    /// Per touched bank, canonical order. Filled on failures too (the
    /// probes spent discovering kNeedSpace cost real cycles). A view of
    /// the resolver's cost buffer, valid until the next process_param or
    /// finish_param call.
    std::span<const BankCost> costs;
  };
  /// Listing 2 for one parameter, routed to its home bank(s). kNeedSpace
  /// leaves every bank unchanged (two-phase precheck), so retries are safe.
  [[nodiscard]] ParamResult process_param(TaskId id, const Param& param);

  /// After all parameters: ready iff the task's DC is zero.
  [[nodiscard]] core::Resolver::FinalizeResult finalize_new_task(TaskId id);

  /// Releases one parameter of finishing task `id` in every touched bank
  /// (canonical order), appending the waiters it grants to `now_ready` in
  /// grant order across those banks. Returns the per-bank costs, a view of
  /// the same buffer ParamResult::costs views. Never needs new table space.
  [[nodiscard]] std::span<const BankCost> finish_param(
      TaskId id, const Param& param, std::vector<TaskId>& now_ready);

  /// Convenience drivers mirroring core::Resolver::submit / finish with
  /// flattened costs — the untimed interface the differential tests (and
  /// any software harness) drive directly.
  [[nodiscard]] core::Resolver::SubmitResult submit(TaskId id);
  [[nodiscard]] core::Resolver::FinishResult finish(TaskId id);

  /// Element-wise sum of the per-bank resolver stats. In range mode with
  /// spans, the queued and hazard counters count per (parameter, touched
  /// bank) pair.
  [[nodiscard]] core::Resolver::Stats aggregated_stats() const;

  [[nodiscard]] const BankedTable& table() const noexcept { return *table_; }

 private:
  /// process_param's body; fills costs_.
  [[nodiscard]] ParamResult resolve_param(TaskId id, const Param& param);

  core::TaskPool* tp_;
  BankedTable* table_;
  std::vector<core::Resolver> per_bank_;
  /// Per-bank costs of the latest call, reused so that a parameter's
  /// resolution allocates nothing: at most one entry per bank, reserved at
  /// construction.
  std::vector<BankCost> costs_;
};

}  // namespace nexuspp::bank
