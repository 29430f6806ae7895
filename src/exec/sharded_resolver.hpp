#pragma once
// ShardedResolver: real concurrent dependency resolution built from the
// simulator's own untimed structures.
//
// N *shards*, each a complete monolithic resolver stack — core::TaskPool +
// core::DependenceTable + core::Resolver — with parameters routed to
// shards by bank::BankPartition exactly like the banked hardware model
// routes them to banks:
//
//   base-address mode — a parameter belongs to the home shard of its base
//   address; equal bases always meet in the same shard.
//
//   range mode — an interval registers in every shard whose home region it
//   touches; overlapping intervals always share at least one shard.
//
// A global task is *projected* onto its touched shards: shard s gets a
// shard-local task holding exactly the parameters routed to s, resolved by
// that shard's core::Resolver verbatim (same Listing-2 semantics, same
// dummy-entry mechanics, same `busy`-flag protocol as the simulated
// Maestro). The global task is ready when every projection is ready; a
// per-task atomic counts shards still holding it back. Because each shard
// is self-contained, no operation ever spans two shards' critical
// sections, and cross-shard atomicity is never needed: a shard's
// grant/queue decisions depend only on its own tables.
//
// How a shard serializes its mutations is the ShardOps seam, selected by
// the `sync` knob:
//
//   sync=mutex (default) — one std::mutex per shard, the PR-5 design.
//
//   sync=lockfree — no shard lock anywhere. Task-descriptor admission is
//   a wait-free atomic claim against a combiner-published space snapshot
//   (a failed claim *is* the stall signal — the thread never queues, never
//   blocks). The mutations that genuinely rewrite hash chains flow
//   through a per-shard flat-combining DelegationQueue (sync_queue.hpp):
//   one thread drains a whole batch per combiner handoff instead of a
//   lock convoy. Snapshots and grant-overflow blocks are reclaimed via
//   epoch-based reclamation (epoch.hpp) so lock-free readers never touch
//   freed memory. Techniques follow Álvarez et al. 2021 (PAPERS.md).
//
// Correctness inherits from the banked decomposition (bank/resolver.hpp):
// conflicts are discovered in shared shards, every DC increment is matched
// by a decrement from the same shard, and within a shard FIFO kick-off
// order follows global submission order (submission is single-threaded).
// Both sync modes run the identical per-shard registration/release logic
// (one shared code path), so their resolver-level decisions are the same;
// only the serialization mechanism differs.
//
// Capacity behaviour mirrors the timed Maestro: a full pool/table yields a
// resumable stall (SubmitSession keeps its cursor; a retry never
// re-registers processed parameters), and structural failures (kick-off
// overflow with dummies disabled, oversized descriptors) are permanent and
// reported as such.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bank/partition.hpp"
#include "chk/chk.hpp"
#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"
#include "exec/epoch.hpp"

namespace nexuspp::exec {

/// Shard serialization backend (see file comment).
enum class SyncMode : std::uint8_t {
  kMutex,     ///< one mutex per shard
  kLockFree,  ///< atomic slot claims + delegation queue + epochs
};

[[nodiscard]] const char* to_string(SyncMode mode) noexcept;
/// Parses "mutex" / "lockfree"; throws std::invalid_argument otherwise.
[[nodiscard]] SyncMode sync_mode_from_string(std::string_view text);

struct ShardedResolverConfig {
  std::uint32_t shards = 1;          ///< lock/table shards ("banks" knob)
  std::uint32_t region_bytes = 256;  ///< BankPartition home-region size
  core::MatchMode match_mode = core::MatchMode::kBaseAddr;
  /// Descriptor slots across all shards, split evenly (like the table
  /// budget below), so capacity knobs mean "machine total" on every
  /// engine. Note a task projects one shard-local descriptor per touched
  /// shard, so multi-shard tasks consume more total slots than on a
  /// monolithic pool.
  std::uint32_t pool_capacity = 16384;
  std::uint32_t table_capacity = 65536;  ///< DT entries, split across shards
  std::uint32_t kick_off_capacity = 8;   ///< ids per kick-off list
  bool allow_dummies = true;  ///< dummy tasks + dummy entries
  SyncMode sync = SyncMode::kMutex;

  /// Throws std::invalid_argument on zero shards/capacities or a bad
  /// region size (BankPartition::validate).
  void validate() const;
};

class ShardedResolver {
 public:
  /// Dense task index assigned by the caller in submission order.
  using GlobalId = std::uint64_t;
  static constexpr GlobalId kNoGlobal = ~0ull;

  /// `expected_tasks` pre-sizes the per-task state (no reallocation while
  /// workers hold references).
  ShardedResolver(const ShardedResolverConfig& config,
                  std::uint64_t expected_tasks);

  ShardedResolver(const ShardedResolver&) = delete;
  ShardedResolver& operator=(const ShardedResolver&) = delete;
  ~ShardedResolver();

  enum class Progress : std::uint8_t {
    kDone,        ///< fully registered; query session.ready()
    kStalled,     ///< a shard is out of space — retry after a finish frees some
    kStructural,  ///< permanent failure; see session.failure()
  };

  /// Resumable multi-shard registration of one task. advance() enters each
  /// touched shard's critical section in canonical (ascending id) order,
  /// one at a time; on kStalled all completed work stays registered and
  /// the cursor resumes exactly where it stopped, so no parameter is ever
  /// processed twice. Drive it from a single thread.
  class SubmitSession {
   public:
    [[nodiscard]] Progress advance();

    /// True once the task has no unresolved dependencies anywhere — set
    /// either at kDone or never (a later finish() reports the task ready
    /// instead). Exactly one of the two paths fires per task.
    [[nodiscard]] bool ready() const noexcept { return ready_; }
    [[nodiscard]] const std::string& failure() const noexcept {
      return failure_;
    }

   private:
    friend class ShardedResolver;
    SubmitSession(ShardedResolver* owner, GlobalId gid, std::uint64_t serial,
                  std::uint64_t fn,
                  std::vector<std::pair<std::uint32_t,
                                        std::vector<core::Param>>> groups)
        : owner_(owner), gid_(gid), serial_(serial), fn_(fn),
          groups_(std::move(groups)) {}

    ShardedResolver* owner_;
    GlobalId gid_;
    std::uint64_t serial_;
    std::uint64_t fn_;
    /// Parameters grouped per touched shard, canonical shard order.
    std::vector<std::pair<std::uint32_t, std::vector<core::Param>>> groups_;
    std::size_t group_ = 0;  ///< current group cursor
    std::size_t param_ = 0;  ///< next parameter within the current group
    std::string failure_;
    bool ready_ = false;
  };

  /// Starts registration of task `gid` (must be called in gid order by one
  /// thread; gid < expected_tasks). Computes the shard projection and
  /// initializes the task's pending-shard counter. Takes the parameter
  /// list by value: the single-shard fast path moves it straight into the
  /// session instead of copying (this is the submit hot path).
  [[nodiscard]] SubmitSession begin_submit(GlobalId gid, std::uint64_t serial,
                                           std::uint64_t fn,
                                           std::vector<core::Param> params);

  /// Releases every access of completed task `gid` (canonical shard order,
  /// one critical section at a time), frees its shard-local descriptors,
  /// and fills `now_ready` (cleared first) with the global tasks that
  /// became fully ready. The buffer is caller-owned so the release hot
  /// path never allocates — a caller reuses one across calls. Thread-safe
  /// (ThreadedExecutor calls it from its master only, which frees the
  /// space a stalled SubmitSession waits for). Never needs new table
  /// space.
  void finish(GlobalId gid, std::vector<GlobalId>& now_ready);

  // --- Telemetry (sums over shards; exact only when quiescent) ----------------

  /// Synchronization-layer counters. The mutex backend fills the lock_*
  /// pair; the lock-free backend fills the rest; both appear in RunReport
  /// so sweeps can plot contention across sync modes with one schema.
  struct SyncStats {
    std::uint64_t lock_acquisitions = 0;
    std::uint64_t lock_contentions = 0;  ///< acquisitions that found it held
    std::uint64_t cas_retries = 0;       ///< failed claim/publish CASes
    std::uint64_t combined_batches = 0;
    std::uint64_t combined_requests = 0;
    std::uint64_t max_combined_batch = 0;
    std::uint64_t slot_claim_failures = 0;  ///< wait-free stall detections
    std::uint64_t epoch_advances = 0;
    std::uint64_t epoch_retired = 0;
    std::uint64_t epoch_reclaimed = 0;
  };
  [[nodiscard]] SyncStats sync_stats() const;

  [[nodiscard]] core::Resolver::Stats resolver_stats() const;

  struct TableStats {
    std::uint64_t lookups = 0;
    std::uint64_t lookup_probes = 0;
    std::uint32_t max_live_slots = 0;      ///< summed per-shard highwaters
    std::uint32_t longest_hash_chain = 0;  ///< max over shards
    std::uint64_t ko_dummy_allocations = 0;
    std::uint64_t tp_dummy_slots = 0;
    std::uint32_t tp_max_used = 0;  ///< summed per-shard highwaters
  };
  [[nodiscard]] TableStats table_stats() const;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] SyncMode sync_mode() const noexcept { return sync_; }

  /// One shard's serialization backend: the narrow seam between the
  /// SubmitSession stall/retry state machine (sync-agnostic) and the
  /// shard data structures (sync-specific). An implementation detail —
  /// defined in the .cpp along with its mutex and lock-free backends;
  /// declared here (and public) only so those backends can derive from
  /// it.
  class ShardOps;

 private:
  struct TaskNode {
    /// Shards whose projection has not yet granted this task. The task is
    /// ready exactly when this reaches zero; whoever decrements it to zero
    /// owns reporting it ready.
    chk::Atomic<std::uint32_t> pending{0};
    /// (shard, local id) per touched shard, canonical order. Written by
    /// the submitting thread before the task can become ready.
    std::vector<std::pair<std::uint32_t, core::TaskId>> locals;
  };

  bank::BankPartition partition_;
  core::MatchMode match_mode_;
  SyncMode sync_;
  std::vector<std::unique_ptr<ShardOps>> shards_;
  std::vector<TaskNode> nodes_;
  /// Reclamation domain shared by all lock-free shards (unused by mutex
  /// shards); lives here so its lifetime covers every shard's retirees.
  EpochDomain epoch_;
  /// Shard id -> group slot scratch for begin_submit's projection (the
  /// submit path is single-threaded; keeping this hot avoids per-task
  /// node-based containers on fine-grain workloads).
  std::vector<std::int32_t> scratch_group_of_shard_;
};

}  // namespace nexuspp::exec
