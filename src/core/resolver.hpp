#pragma once
// Dependency resolution: the Check Deps and Handle Finished logic of the
// Task Maestro, operating on the Task Pool and the Dependence Table.
//
// `process_param` is the paper's Listing 2 for a single parameter of a
// newly submitted task; `finish` is the Handle Finished walk over a
// completed task's parameters. Both are *untimed*: they mutate the tables
// and return Cost receipts. The timed Maestro charges cycles for the
// receipts and handles kNeedSpace results by stalling until table space
// frees (the hardware blocks do exactly that), then retrying — a failed
// call leaves all state unchanged, so retries are safe.
//
// Hazard handling in base-address mode (the paper's semantics — accesses
// compared by base address):
//   RAW  — reader of an address a prior task writes: queued in the
//          kick-off list, DC incremented.
//   WAW  — writer behind a writer: queued likewise.
//   WAR  — writer behind active readers: queued, and the entry's `ww`
//          (writer-waits) flag set; later readers must queue behind it.
//   RAR  — concurrent readers: granted immediately, `Rdrs` incremented.
//
// Range mode (DependenceTableConfig::match_mode == MatchMode::kRange):
// every parameter registers its own owner-tagged entry, and queues behind
// *each* overlapping conflicting entry (one RAW/WAR/WAW per overlap, DC
// incremented per overlap). Ordering falls out of the registration graph:
// a later access conflicts with every queued conflicting access, so it can
// never overtake one. On finish each owned entry drains its kick-off list
// (FIFO, params in order) and is erased. The multi-entry registration is
// atomic: slot demand is prechecked, so a kNeedSpace result still leaves
// all state unchanged and retries stay safe.

#include <cstdint>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"

namespace nexuspp::core {

class Resolver {
 public:
  Resolver(TaskPool& pool, DependenceTable& table)
      : tp_(&pool), dt_(&table) {}

  enum class ParamOutcome : std::uint8_t {
    kGranted,    ///< access granted immediately (no dependency)
    kQueued,     ///< queued in a kick-off list; DC incremented
    kNeedSpace,  ///< Dependence Table full — stall and retry
  };

  struct ParamResult {
    ParamOutcome outcome = ParamOutcome::kGranted;
    /// With kNeedSpace: true when waiting can never help (a bounded
    /// kick-off list overflowed with dummy entries disabled).
    bool structural = false;
    Cost cost;
  };
  /// Listing 2 for one parameter of task `id`.
  [[nodiscard]] ParamResult process_param(TaskId id, const Param& param);

  struct FinalizeResult {
    bool ready = false;  ///< DC == 0: no unresolved dependencies
    Cost cost;
  };
  /// After all parameters are processed: ready iff the task's DC is zero.
  [[nodiscard]] FinalizeResult finalize_new_task(TaskId id);

  struct SubmitResult {
    bool ready = false;
    bool stalled = false;          ///< hit kNeedSpace (tables too small)
    std::size_t params_done = 0;   ///< parameters processed before a stall
    Cost cost;
  };
  /// Convenience: runs process_param over the task's parameters, walked in
  /// place in the Task Pool (charged one read per descriptor slot). Does
  /// not retry on kNeedSpace — the timed Maestro owns that policy.
  [[nodiscard]] SubmitResult submit(TaskId id);

  /// Handle Finished: releases the finished task's accesses, grants
  /// waiting tasks, erases drained entries. Never needs new table space.
  /// Walks the descriptor's parameters in place (charged one read per
  /// descriptor slot) and appends the tasks it kicks off to `now_ready` in
  /// grant order, keeping what the buffer already holds: a caller that
  /// reuses one buffer makes the release path allocation-free. Returns the
  /// table-access receipt.
  Cost finish(TaskId id, std::vector<TaskId>& now_ready);

  struct FinishResult {
    std::vector<TaskId> now_ready;  ///< tasks kicked off, in grant order
    Cost cost;
  };
  /// finish() into a fresh list, for callers without a reusable buffer.
  [[nodiscard]] FinishResult finish(TaskId id);

  /// The per-parameter body of finish(): releases one access of finishing
  /// task `id` and appends the waiters it grants to `now_ready`. finish()
  /// is exactly this call per parameter in order; it is public so the
  /// banked resolver (bank::BankedResolver) can route each parameter to its
  /// home bank's resolver while keeping identical per-parameter semantics
  /// and costs.
  Cost finish_param(TaskId id, const Param& param,
                    std::vector<TaskId>& now_ready);

  struct RangePrecheck {
    /// The entries this access queues behind: overlapping entries of
    /// other tasks where either side writes, in ascending base order.
    std::vector<DependenceTable::Index> conflicts;
    Cost cost;  ///< the overlap scan
    /// The table has room for this access's entry and every kick-off
    /// append it needs.
    bool fits = false;
    /// A conflicting kick-off list is full and dummy entries are off:
    /// waiting can never help.
    bool structural = false;
  };
  /// Range mode, before registering `param` of task `id`: the overlap
  /// scan, the conflict filter, the kick-off append dry-runs and the
  /// free-slot count. Changes no entry, so a caller that registers one
  /// access in several tables (bank::BankedResolver) prechecks them all
  /// before committing to any.
  [[nodiscard]] RangePrecheck precheck_range(TaskId id,
                                             const Param& param) const;

  struct Stats {
    std::uint64_t granted = 0;
    std::uint64_t queued = 0;
    std::uint64_t stalls = 0;
    std::uint64_t war_hazards = 0;  ///< writer queued behind readers
    std::uint64_t waw_hazards = 0;  ///< writer queued behind a writer
    std::uint64_t raw_hazards = 0;  ///< reader queued behind a writer
    /// Times release_as_writer hit its defensive empty-drain branch — the
    /// "cannot normally happen" erase. Property tests pin this at zero.
    std::uint64_t defensive_drains = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  // Base-address paths.
  [[nodiscard]] ParamResult process_param_base(TaskId id, const Param& param);
  void release_as_reader(Addr addr, Cost& cost,
                         std::vector<TaskId>& now_ready);
  void release_as_writer(Addr addr, Cost& cost,
                         std::vector<TaskId>& now_ready);
  // Range paths.
  [[nodiscard]] ParamResult process_param_range(TaskId id, const Param& param);
  void release_owned(TaskId id, const Param& param, Cost& cost,
                     std::vector<TaskId>& now_ready);
  /// Decrements `task`'s DC; appends it to `now_ready` when it hits zero.
  void grant_waiter(TaskId task, Cost& cost, std::vector<TaskId>& now_ready);

  TaskPool* tp_;
  DependenceTable* dt_;
  Stats stats_;
};

}  // namespace nexuspp::core
