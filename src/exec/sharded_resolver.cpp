#include "exec/sharded_resolver.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <stdexcept>

#include "exec/sync_queue.hpp"
#include "obs/timeline.hpp"
#include "util/invariant.hpp"

namespace nexuspp::exec {

const char* to_string(SyncMode mode) noexcept {
  switch (mode) {
    case SyncMode::kMutex:
      return "mutex";
    case SyncMode::kLockFree:
      return "lockfree";
  }
  return "?";
}

SyncMode sync_mode_from_string(std::string_view text) {
  if (text == "mutex") return SyncMode::kMutex;
  if (text == "lockfree") return SyncMode::kLockFree;
  throw std::invalid_argument("unknown sync mode '" + std::string(text) +
                              "' (expected mutex|lockfree)");
}

void ShardedResolverConfig::validate() const {
  bank::BankPartition{shards, region_bytes}.validate();
  if (pool_capacity < shards) {
    throw std::invalid_argument(
        "ShardedResolver: pool_capacity must be >= shards");
  }
  if (table_capacity < shards) {
    throw std::invalid_argument(
        "ShardedResolver: table_capacity must be >= shards");
  }
  core::DependenceTableConfig{std::max(1u, table_capacity / shards),
                              kick_off_capacity, allow_dummies, match_mode}
      .validate();
}

namespace {

/// One shard's data structures — a complete monolithic resolver stack plus
/// the local->global id mapping. Plain (non-atomic) state: each ShardOps
/// backend guarantees the registration/release bodies below run serially.
struct ShardState {
  ShardState(const ShardedResolverConfig& cfg, std::uint32_t shard_id,
             std::uint32_t pool_capacity, std::uint32_t table_capacity)
      : pool({pool_capacity, 8, cfg.allow_dummies}),
        table({table_capacity, cfg.kick_off_capacity, cfg.allow_dummies,
               cfg.match_mode}),
        resolver(pool, table),
        local_to_global(pool_capacity, ShardedResolver::kNoGlobal),
        shard_id(shard_id) {
    // One release grants each live local task at most once, so a buffer
    // sized to the pool never grows on the release path.
    local_grants.reserve(pool_capacity);
  }

  core::TaskPool pool;
  core::DependenceTable table;
  core::Resolver resolver;
  /// Local TaskId -> owning global task.
  std::vector<ShardedResolver::GlobalId> local_to_global;
  /// Scratch for the local ids one release grants.
  std::vector<core::TaskId> local_grants;
  std::uint32_t shard_id;
};

}  // namespace

/// The seam between the sync-agnostic SubmitSession state machine and the
/// shard data structures. Both implementations run the *same* registration
/// and release bodies (shared_submit_group / shared_finish_local below);
/// they differ only in how those bodies are serialized.
class ShardedResolver::ShardOps {
 public:
  virtual ~ShardOps() = default;

  struct SubmitResult {
    Progress progress = Progress::kDone;
    /// finalize said the shard holds nothing against the task (its vote
    /// on the pending counter is released by the session).
    bool shard_ready = false;
    std::string failure;  ///< set when kStructural
  };

  /// Resumable registration of one shard group. `local` and `param_cursor`
  /// are the session's cursors, updated in place so a retry after
  /// kStalled resumes exactly where it stopped.
  virtual SubmitResult submit_group(GlobalId gid, std::uint64_t serial,
                                    std::uint64_t fn,
                                    const std::vector<core::Param>& params,
                                    core::TaskId& local,
                                    std::size_t& param_cursor) = 0;

  /// Releases one completed shard-local task; appends the *global* ids
  /// whose shard vote this release granted (pending decrements are the
  /// caller's job).
  virtual void finish_local(core::TaskId task,
                            std::vector<GlobalId>& granted) = 0;

  [[nodiscard]] virtual SyncStats sync_stats() const = 0;
  [[nodiscard]] virtual const ShardState& state() const = 0;
};

namespace {

using Progress = ShardedResolver::Progress;
using GlobalId = ShardedResolver::GlobalId;
using SubmitResult = ShardedResolver::ShardOps::SubmitResult;
using SyncStats = ShardedResolver::SyncStats;

/// Registration body shared by both sync backends (semantics identical to
/// the simulated Maestro: busy-flag protocol, dummy entries, resumable
/// stalls). Caller guarantees exclusive access to `st`.
SubmitResult shared_submit_group(ShardState& st, GlobalId gid,
                                 std::uint64_t serial, std::uint64_t fn,
                                 const std::vector<core::Param>& params,
                                 core::TaskId& local,
                                 std::size_t& param_cursor) {
  // Schedcheck: this body mutates plain shard state; the write below
  // asserts every entry happens-after the previous one (i.e. the backend
  // really did serialize the critical sections).
  chk::plain_write(&st);
  SubmitResult out;
  if (local == core::kInvalidTask) {
    if (!st.pool.can_ever_insert(params.size())) {
      out.progress = Progress::kStructural;
      out.failure = "task " + std::to_string(serial) + " needs " +
                    std::to_string(st.pool.slots_needed(params.size())) +
                    " descriptor slots, shard pool holds " +
                    std::to_string(st.pool.capacity()) +
                    " (dummy tasks disabled or pool too small)";
      return out;
    }
    const auto inserted = st.pool.insert(fn, serial, params);
    if (!inserted.has_value()) {
      out.progress = Progress::kStalled;
      return out;
    }
    // Schedcheck: the cursor slot is the publication point the PR 6 race
    // was about — finish() readers must happen-after this write via the
    // shard's own serialization.
    chk::plain_write(&local);
    local = inserted->id;
    param_cursor = 0;
    // The Maestro's busy-flag protocol: grants arriving while later
    // parameters are still being registered must not declare the task
    // ready — the finalize step below owns that decision.
    st.pool.set_busy(local, true);
    st.local_to_global[local] = gid;
  }

  while (param_cursor < params.size()) {
    const auto result = st.resolver.process_param(local, params[param_cursor]);
    if (result.outcome == core::Resolver::ParamOutcome::kNeedSpace) {
      if (result.structural) {
        out.progress = Progress::kStructural;
        out.failure =
            "kick-off list overflow with dummy entries disabled "
            "(classic-Nexus structural limit) in shard " +
            std::to_string(st.shard_id);
        return out;
      }
      out.progress = Progress::kStalled;
      return out;
    }
    ++param_cursor;
  }

  st.pool.set_busy(local, false);
  const auto fin = st.resolver.finalize_new_task(local);
  out.progress = Progress::kDone;
  out.shard_ready = fin.ready;
  return out;
}

/// Release body shared by both sync backends. Caller guarantees exclusive
/// access to `st`.
// NEXUS_HOT_PATH
void shared_finish_local(ShardState& st, core::TaskId task,
                         std::vector<GlobalId>& granted) {
  chk::plain_write(&st);  // schedcheck: see shared_submit_group
  // The core tables are flat and local_grants never grows, so the release
  // itself runs under the no-alloc tripwire ShardedResolver::finish opened.
  st.local_grants.clear();
  (void)st.resolver.finish(task, st.local_grants);
  st.local_to_global[task] = ShardedResolver::kNoGlobal;
  (void)st.pool.free_task(task);
  // The one audited allocation on this path: amortized growth of the
  // caller-owned grant buffer (workers reuse one per thread).
  util::AllowAllocScope allow("shared_finish_local grant append (amortized)");
  for (const auto granted_local : st.local_grants) {
    const GlobalId global = st.local_to_global[granted_local];
    if (global == ShardedResolver::kNoGlobal) {
      throw std::logic_error(
          "ShardedResolver: granted local task has no global owner");
    }
    granted.push_back(global);  // nexus-lint: allow(hot-path-alloc)
  }
}

// --- sync=mutex --------------------------------------------------------------

class MutexShardOps final : public ShardedResolver::ShardOps {
 public:
  MutexShardOps(const ShardedResolverConfig& cfg, std::uint32_t shard_id,
                std::uint32_t pool_capacity, std::uint32_t table_capacity)
      : state_(cfg, shard_id, pool_capacity, table_capacity) {}

  SubmitResult submit_group(GlobalId gid, std::uint64_t serial,
                            std::uint64_t fn,
                            const std::vector<core::Param>& params,
                            core::TaskId& local,
                            std::size_t& param_cursor) override {
    const auto lock = lock_shard();
    return shared_submit_group(state_, gid, serial, fn, params, local,
                               param_cursor);
  }

  // NEXUS_HOT_PATH
  void finish_local(core::TaskId task,
                    std::vector<GlobalId>& granted) override {
    const auto lock = lock_shard();
    shared_finish_local(state_, task, granted);
  }

  [[nodiscard]] SyncStats sync_stats() const override {
    SyncStats out;
    out.lock_acquisitions = acquisitions_.load(std::memory_order_relaxed);
    out.lock_contentions = contentions_.load(std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] const ShardState& state() const override { return state_; }

 private:
  /// The mutex bundled with its checked-build rank record. Members
  /// destruct in reverse declaration order: rank retires first, then the
  /// mutex unlocks — both on the owning thread, so the tracker never
  /// claims a lock the thread no longer holds.
  struct ShardLock {
    std::unique_lock<chk::Mutex> lock;
    util::LockRankGuard rank;
  };

  /// Locks the shard, counting acquisitions and contended acquisitions.
  [[nodiscard]] ShardLock lock_shard() {
    std::unique_lock<chk::Mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      contentions_.fetch_add(1, std::memory_order_relaxed);
      // Contended path only: the timeline (when bound) gets a lock-wait
      // span; record_here is allocation-free, so this is legal inside the
      // release path's NoAllocScope.
      const double wait0 = obs::here_now_ns();
      lock.lock();
      obs::record_here(obs::EventKind::kLockWait, wait0,
                       obs::here_now_ns() - wait0, 0, state_.shard_id);
    }
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return {std::move(lock), util::LockRankGuard(util::LockDomain::kShard)};
  }

  ShardState state_;
  chk::Mutex mu_;
  chk::Atomic<std::uint64_t> acquisitions_{0};
  chk::Atomic<std::uint64_t> contentions_{0};
};

// --- sync=lockfree -----------------------------------------------------------

/// Combiner-published free-descriptor-slot count. Producers claim
/// admission from it wait-free (CAS decrement); the combiner swaps in a
/// fresh authoritative snapshot after every batch that moved the count and
/// retires the old one through the epoch domain — the canonical EBR read
/// pattern (readers dereference under a Guard, no lock anywhere).
struct SpaceSnapshot {
  explicit SpaceSnapshot(std::int64_t free) : free_slots(free) {}
  chk::Atomic<std::int64_t> free_slots;
};

struct ShardRequest : SyncRequest {
  enum class Kind : std::uint8_t { kSubmit, kFinish };
  Kind kind = Kind::kSubmit;

  // Submit: inputs borrowed from the session for the duration of the
  // delegation; `local`/`param_cursor` point at the session's cursors so
  // the combiner resumes/updates them in place.
  GlobalId gid = 0;
  std::uint64_t serial = 0;
  std::uint64_t fn = 0;
  const std::vector<core::Param>* params = nullptr;
  core::TaskId* local = nullptr;
  std::size_t* param_cursor = nullptr;
  SubmitResult result;

  // Finish: input task, grants returned inline when few, otherwise in a
  // combiner-allocated overflow block the requester epoch-retires after
  // reading (its Guard spans publish-to-last-read, making this safe).
  core::TaskId finish_task = core::kInvalidTask;
  static constexpr std::size_t kInlineGrants = 8;
  std::array<GlobalId, kInlineGrants> grants{};
  std::uint32_t grant_count = 0;
  std::vector<GlobalId>* grant_overflow = nullptr;
};

class LockFreeShardOps final : public ShardedResolver::ShardOps {
 public:
  LockFreeShardOps(const ShardedResolverConfig& cfg, std::uint32_t shard_id,
                   std::uint32_t pool_capacity, std::uint32_t table_capacity,
                   EpochDomain& epoch)
      : state_(cfg, shard_id, pool_capacity, table_capacity),
        epoch_(&epoch),
        space_(new SpaceSnapshot(pool_capacity)) {}

  ~LockFreeShardOps() override {
    // The live snapshot is never epoch-retired (only superseded ones are);
    // by destruction time all readers are quiescent.
    delete space_.load(std::memory_order_relaxed);
  }

  SubmitResult submit_group(GlobalId gid, std::uint64_t serial,
                            std::uint64_t fn,
                            const std::vector<core::Param>& params,
                            core::TaskId& local,
                            std::size_t& param_cursor) override {
    if (local == core::kInvalidTask) {
      if (!state_.pool.can_ever_insert(params.size())) {
        // Structural limits depend only on immutable pool config — safe to
        // read without entering the shard.
        SubmitResult out;
        out.progress = Progress::kStructural;
        out.failure = "task " + std::to_string(serial) + " needs " +
                      std::to_string(state_.pool.slots_needed(params.size())) +
                      " descriptor slots, shard pool holds " +
                      std::to_string(state_.pool.capacity()) +
                      " (dummy tasks disabled or pool too small)";
        return out;
      }
      // Wait-free admission: a failed claim *is* the stall signal — the
      // thread never queues a request the shard has no room for.
      if (!try_claim_slots(state_.pool.slots_needed(params.size()))) {
        slot_claim_failures_.fetch_add(1, std::memory_order_relaxed);
        SubmitResult out;
        out.progress = Progress::kStalled;
        return out;
      }
    }
    ShardRequest request;
    request.kind = ShardRequest::Kind::kSubmit;
    request.gid = gid;
    request.serial = serial;
    request.fn = fn;
    request.params = &params;
    request.local = &local;
    request.param_cursor = &param_cursor;
    run_delegated(request);
    return std::move(request.result);
  }

  // NEXUS_HOT_PATH
  void finish_local(core::TaskId task,
                    std::vector<GlobalId>& granted) override {
    // Pin before publishing, unpin after the last read: any epoch-managed
    // pointer the combiner hands back (the grant-overflow block) stays
    // live for the whole window.
    EpochDomain::Guard guard(*epoch_);
    ShardRequest request;
    request.kind = ShardRequest::Kind::kFinish;
    request.finish_task = task;
    run_delegated(request);
    // Amortized growth of the caller-owned grant buffer is the one
    // audited allocation on this side of the handoff.
    util::AllowAllocScope allow("finish grants append (amortized)");
    for (std::uint32_t i = 0; i < request.grant_count; ++i) {
      granted.push_back(request.grants[i]);  // nexus-lint: allow(hot-path-alloc)
    }
    if (request.grant_overflow != nullptr) {
      // The overflow block is epoch-managed — deref only under the pin.
      util::assert_epoch_guard("grant-overflow block deref");
      // Schedcheck: recorded for the same reclaim_check proof as the
      // space snapshots.
      chk::plain_read(request.grant_overflow);
      // nexus-lint: allow(hot-path-alloc)
      granted.insert(granted.end(), request.grant_overflow->begin(),
                     request.grant_overflow->end());
      epoch_->retire(request.grant_overflow);
    }
    if ((finish_count_.fetch_add(1, std::memory_order_relaxed) & 0xF) == 0) {
      if (obs::here_enabled()) {
        const std::uint64_t before = epoch_->stats().advances;
        epoch_->try_advance();
        if (epoch_->stats().advances != before) {
          obs::record_here(obs::EventKind::kEpochAdvance, obs::here_now_ns(),
                           0.0, 0, state_.shard_id);
        }
      } else {
        epoch_->try_advance();
      }
    }
  }

  [[nodiscard]] SyncStats sync_stats() const override {
    SyncStats out;
    const auto queue = queue_.stats();
    const auto inline_reqs = inline_requests_.load(std::memory_order_relaxed);
    out.cas_retries =
        queue.cas_retries + cas_retries_.load(std::memory_order_relaxed);
    // Fast-path self-executed requests count as batches of one so the
    // combined_* columns total every delegated operation, not just the
    // ones that went through the ring.
    out.combined_batches = queue.combined_batches + inline_reqs;
    out.combined_requests = queue.combined_requests + inline_reqs;
    out.max_combined_batch = std::max<std::uint64_t>(
        queue.max_combined_batch, inline_reqs > 0 ? 1 : 0);
    out.slot_claim_failures =
        slot_claim_failures_.load(std::memory_order_relaxed);
    return out;
  }

  [[nodiscard]] const ShardState& state() const override { return state_; }

 private:
  void handle(SyncRequest& base) {
    // Combiner-side mutation on behalf of whichever thread published the
    // request: registration (range-mode overlap lists, failure messages)
    // and grant-overflow blocks allocate by design, and a finisher
    // that drains the ring inside its own no-alloc scope is executing
    // *other* threads' requests — the scope's rule is about the
    // finisher's own path, so open an audited hole for the batch body.
    util::AllowAllocScope allow("combiner handle() for delegated requests");
    auto& request = static_cast<ShardRequest&>(base);
    if (request.kind == ShardRequest::Kind::kSubmit) {
      request.result = shared_submit_group(
          state_, request.gid, request.serial, request.fn, *request.params,
          *request.local, *request.param_cursor);
    } else {
      combiner_scratch_.clear();
      shared_finish_local(state_, request.finish_task, combiner_scratch_);
      const std::size_t total = combiner_scratch_.size();
      const std::size_t inline_count =
          std::min(total, ShardRequest::kInlineGrants);
      for (std::size_t i = 0; i < inline_count; ++i) {
        request.grants[i] = combiner_scratch_[i];
      }
      request.grant_count = static_cast<std::uint32_t>(inline_count);
      if (total > inline_count) {
        request.grant_overflow = new std::vector<GlobalId>(
            combiner_scratch_.begin() +
                static_cast<std::ptrdiff_t>(inline_count),
            combiner_scratch_.end());
      }
    }
  }

  /// Drains as combiner, then republishes the authoritative free-slot
  /// count (one snapshot allocation per *batch*, not per request) and
  /// retires the superseded snapshot. Combiner flag must be held; releases
  /// it before returning.
  void combine_and_release() {
    const auto handler = [this](SyncRequest& r) { handle(r); };
    const std::size_t batch = queue_.drain(handler);
    if (batch > 0) {
      obs::record_here(obs::EventKind::kCombine, obs::here_now_ns(), 0.0, 0,
                       batch);
      publish_space_if_stale();
    }
    queue_.release_combiner();
  }

  /// Combiner flag must be held. Skips the allocation + swap when the
  /// live snapshot already carries the authoritative count (typical after
  /// a submit-only batch, where the producer's claim pre-decremented
  /// exactly what insert consumed).
  void publish_space_if_stale() {
    SpaceSnapshot* snap = space_.load(std::memory_order_relaxed);
    if (snap->free_slots.load(std::memory_order_relaxed) ==
        static_cast<std::int64_t>(state_.pool.free_slot_count())) {
      return;
    }
    publish_space();
  }

  void publish_space() {
    // One snapshot per combining *batch* — the audited allocation rate.
    util::AllowAllocScope allow("publish_space snapshot");
    auto* fresh = new SpaceSnapshot(
        static_cast<std::int64_t>(state_.pool.free_slot_count()));
    SpaceSnapshot* old = space_.exchange(fresh, std::memory_order_seq_cst);
    epoch_->retire(old);
  }

  /// The combine-or-wait protocol for one request (DelegationQueue::
  /// execute, plus the per-batch snapshot republish only this class
  /// needs). Fast path: when the combiner flag is free — the uncontended
  /// case, and always at threads=1 — run the request inline (after any
  /// ring backlog, keeping FIFO for earlier publishers) and skip the
  /// publish/wait round trip entirely; this is what keeps the lockfree
  /// backend's uncontended per-op cost at mutex parity.
  void run_delegated(ShardRequest& request) {
    const auto handler = [this](SyncRequest& r) { handle(r); };
    if (queue_.try_acquire_combiner()) {
      const std::size_t backlog = queue_.drain(handler);
      if (backlog > 0) {
        // Only ring-drained batches are recorded — the uncontended inline
        // op is the common case and would drown the timeline in noise.
        obs::record_here(obs::EventKind::kCombine, obs::here_now_ns(), 0.0,
                         0, backlog);
      }
      handle(request);
      request.done.store(true, std::memory_order_relaxed);  // self-executed
      inline_requests_.fetch_add(1, std::memory_order_relaxed);
      publish_space_if_stale();
      queue_.release_combiner();
      return;
    }
    request.done.store(false, std::memory_order_relaxed);
    Backoff backoff;
    while (!queue_.try_publish(&request)) {
      if (queue_.try_acquire_combiner()) {
        combine_and_release();
      } else {
        backoff.pause();
      }
    }
    backoff.reset();
    while (!request.done.load(std::memory_order_acquire)) {
      if (queue_.try_acquire_combiner()) {
        combine_and_release();
        continue;  // a slower publisher ahead of us may still gate us
      }
      backoff.pause();
    }
  }

  // NEXUS_HOT_PATH
  [[nodiscard]] bool claim_from_snapshot(std::uint32_t need) {
    EpochDomain::Guard guard(*epoch_);
    SpaceSnapshot* snap = space_.load(std::memory_order_seq_cst);
    util::assert_epoch_guard("SpaceSnapshot deref (claim)");
    std::int64_t avail = snap->free_slots.load(std::memory_order_relaxed);
    while (avail >= static_cast<std::int64_t>(need)) {
      if (snap->free_slots.compare_exchange_weak(
              avail, avail - static_cast<std::int64_t>(need),
              std::memory_order_relaxed)) {
        return true;
      }
      cas_retries_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  /// Claims are advisory (the combiner's pool.insert stays authoritative —
  /// dummy-task allocation makes exact producer-side accounting
  /// impossible), so a claim may fail against a snapshot that merely went
  /// stale between batches. Before reporting a stall, resync: briefly
  /// become the combiner and republish the authoritative count, so a
  /// failure against a *fresh* snapshot is a real out-of-space condition —
  /// this is what keeps the executor's capacity-deadlock diagnosis exact
  /// in lockfree mode.
  // NEXUS_HOT_PATH
  [[nodiscard]] bool try_claim_slots(std::uint32_t need) {
    if (claim_from_snapshot(need)) return true;
    if (queue_.try_acquire_combiner()) {
      const auto handler = [this](SyncRequest& r) { handle(r); };
      (void)queue_.drain(handler);
      publish_space();
      queue_.release_combiner();
      if (claim_from_snapshot(need)) return true;
    }
    return false;
  }

  ShardState state_;
  EpochDomain* epoch_;
  DelegationQueue queue_;
  chk::Atomic<SpaceSnapshot*> space_;
  chk::Atomic<std::uint64_t> cas_retries_{0};
  chk::Atomic<std::uint64_t> slot_claim_failures_{0};
  /// Requests self-executed on the fast path (batch of one, never rang).
  chk::Atomic<std::uint64_t> inline_requests_{0};
  /// Finish counter gating epoch advances (one 64-slot scan per 16
  /// finishes bounds limbo growth without paying the scan on every op).
  chk::Atomic<std::uint64_t> finish_count_{0};
  /// Combiner-owned (guarded by the combiner flag).
  std::vector<GlobalId> combiner_scratch_;
};

}  // namespace

// --- ShardedResolver ---------------------------------------------------------

ShardedResolver::ShardedResolver(const ShardedResolverConfig& config,
                                 std::uint64_t expected_tasks)
    : partition_{config.shards, config.region_bytes},
      match_mode_(config.match_mode),
      sync_(config.sync),
      nodes_(expected_tasks) {
  config.validate();
  const std::uint32_t pool_per_shard =
      std::max(1u, config.pool_capacity / config.shards);
  const std::uint32_t table_per_shard =
      std::max(1u, config.table_capacity / config.shards);
  shards_.reserve(config.shards);
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    if (sync_ == SyncMode::kLockFree) {
      shards_.push_back(std::make_unique<LockFreeShardOps>(
          config, s, pool_per_shard, table_per_shard, epoch_));
    } else {
      shards_.push_back(std::make_unique<MutexShardOps>(
          config, s, pool_per_shard, table_per_shard));
    }
  }
}

ShardedResolver::~ShardedResolver() = default;

ShardedResolver::SubmitSession ShardedResolver::begin_submit(
    GlobalId gid, std::uint64_t serial, std::uint64_t fn,
    std::vector<core::Param> params) {
  if (gid >= nodes_.size()) {
    throw std::out_of_range("ShardedResolver: gid beyond expected_tasks");
  }
  // Project the parameter list onto its touched shards (range-mode spans
  // register everywhere they reach, like the banked hardware model).
  // This is the single-threaded submit hot path — fine-grain workloads
  // are bounded by it — so grouping uses a per-resolver scratch index
  // (shard id -> group slot) instead of per-task node-based containers,
  // and single-shard parameters never materialize a bank list.
  std::vector<std::pair<std::uint32_t, std::vector<core::Param>>> groups;
  if (shards_.size() == 1) {
    if (!params.empty()) groups.emplace_back(0u, std::move(params));
  } else {
    scratch_group_of_shard_.assign(shards_.size(), -1);
    const auto add = [&](std::uint32_t shard, const core::Param& param) {
      auto& slot = scratch_group_of_shard_[shard];
      if (slot < 0) {
        slot = static_cast<std::int32_t>(groups.size());
        groups.emplace_back(shard, std::vector<core::Param>{});
      }
      groups[static_cast<std::size_t>(slot)].second.push_back(param);
    };
    for (const auto& param : params) {
      if (!partition_.param_spans_banks(param, match_mode_)) {
        add(partition_.bank_of(param.addr), param);
      } else {
        const std::uint32_t span = param.size == 0 ? 1 : param.size;
        for (const auto shard : partition_.banks_for(param.addr, span)) {
          add(shard, param);
        }
      }
    }
    // Canonical (ascending shard id) order — the discovery order above is
    // first-touch.
    std::sort(groups.begin(), groups.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  TaskNode& node = nodes_[gid];
  // Pre-size the locals (shard id now, local id written by submit_group
  // *inside* the shard's critical section): the moment a shard's finish
  // can grant this task, the granting thread — and anyone who later runs
  // finish(gid) — must already see the slot, ordered by the shard's own
  // serialization. Appending after submit_group returns would race with
  // exactly that reader.
  node.locals.clear();
  node.locals.reserve(groups.size());
  for (const auto& [shard_id, group_params] : groups) {
    (void)group_params;
    node.locals.emplace_back(shard_id, core::kInvalidTask);
  }
  // Relaxed: publication to the threads that decrement it rides each
  // shard's own serialization (mutex release / combiner handoff) — no
  // thread touches this counter before entering a shard critical section
  // that happens-after the advance() that follows this store.
  node.pending.store(static_cast<std::uint32_t>(groups.size()),
                     std::memory_order_relaxed);
  SubmitSession session(this, gid, serial, fn, std::move(groups));
  session.ready_ = session.groups_.empty();  // param-less tasks run at once
  return session;
}

ShardedResolver::Progress ShardedResolver::SubmitSession::advance() {
  TaskNode& node = owner_->nodes_[gid_];
  while (group_ < groups_.size()) {
    const auto& [shard_id, params] = groups_[group_];
    ShardOps& ops = *owner_->shards_[shard_id];
    // The cursor *is* the task's locals slot (pre-sized by begin_submit):
    // submit_group writes the inserted local id through it inside the
    // shard's critical section, so the entry is published before any
    // finish in that shard can possibly grant the task. kInvalidTask in
    // the slot doubles as the "descriptor not inserted yet" resume state.
    core::TaskId& local = node.locals[group_].second;
    SubmitResult result;
    if (chk::Faults::publish_local_id_late() && local == core::kInvalidTask) {
      // Compiled-in mutant (schedcheck harness only; constant-false and
      // folded away in normal builds): reintroduces the PR 6 publication
      // race by registering through a session-local cursor and copying it
      // into the task node only after the critical section is left — the
      // window where a concurrent finish can grant the task and read
      // kInvalidTask.
      core::TaskId staged = local;
      result = ops.submit_group(gid_, serial_, fn_, params, staged, param_);
      chk::plain_write(&local);
      local = staged;
    } else {
      result = ops.submit_group(gid_, serial_, fn_, params, local, param_);
    }
    if (result.progress == Progress::kStalled) return Progress::kStalled;
    if (result.progress == Progress::kStructural) {
      failure_ = std::move(result.failure);
      return Progress::kStructural;
    }
    ++group_;
    if (result.shard_ready) {
      // This shard holds nothing against the task; release its vote now.
      // Acq_rel: the decrement that observes 1 claims sole ownership of
      // reporting the task ready and must see every other shard's writes
      // (their release halves), ordered before anything the winner does.
      if (node.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ready_ = true;
      }
    }
  }
  return Progress::kDone;
}

// NEXUS_HOT_PATH
void ShardedResolver::finish(GlobalId gid, std::vector<GlobalId>& now_ready) {
  // Checked builds abort on any unaudited allocation in this call's
  // dynamic extent; AllowAllocScope at the reviewed interior sites
  // (grant-buffer growth, combiner work and snapshots, epoch limbo nodes)
  // opens the audited holes. See docs/CORRECTNESS.md.
  util::NoAllocScope no_alloc("ShardedResolver::finish");
  now_ready.clear();
  TaskNode& node = nodes_[gid];
  for (const auto& [shard_id, local] : node.locals) {
    // Schedcheck: reader side of the local-id publication (see
    // shared_submit_group) — the racing pair the PR 6 mutant recreates.
    chk::plain_read(&local);
    if (local == core::kInvalidTask) {
      // A grant can only reach this task after every touched shard wrote
      // its local id (the publication the shard's serialization orders
      // before any finish). Seeing the sentinel here means that ordering
      // was lost — fail with a diagnosis instead of indexing the pool
      // with the sentinel.
      util::AllowAllocScope allow("invalid-local diagnostic");
      throw std::logic_error(
          "ShardedResolver::finish: task " + std::to_string(gid) +
          " granted before shard " + std::to_string(shard_id) +
          " published its local id (lost publication)");
    }
    shards_[shard_id]->finish_local(local, now_ready);
  }
  // The collected entries are per-shard votes; keep only the tasks whose
  // final vote this release supplied (in-place compaction — this path
  // must not allocate).
  std::size_t keep = 0;
  for (const GlobalId granted : now_ready) {
    // Acq_rel: same vote protocol as advance() — zero-winner owns the
    // ready report and must observe the losers' preceding shard work.
    if (nodes_[granted].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      now_ready[keep++] = granted;
    }
  }
  // Shrink only — never reallocates.  // nexus-lint: allow(hot-path-alloc)
  now_ready.resize(keep);
}

ShardedResolver::SyncStats ShardedResolver::sync_stats() const {
  SyncStats out;
  for (const auto& shard : shards_) {
    const auto s = shard->sync_stats();
    out.lock_acquisitions += s.lock_acquisitions;
    out.lock_contentions += s.lock_contentions;
    out.cas_retries += s.cas_retries;
    out.combined_batches += s.combined_batches;
    out.combined_requests += s.combined_requests;
    out.max_combined_batch = std::max(out.max_combined_batch,
                                      s.max_combined_batch);
    out.slot_claim_failures += s.slot_claim_failures;
  }
  const auto epoch = epoch_.stats();
  out.epoch_advances = epoch.advances;
  out.epoch_retired = epoch.retired;
  out.epoch_reclaimed = epoch.reclaimed;
  return out;
}

core::Resolver::Stats ShardedResolver::resolver_stats() const {
  core::Resolver::Stats out;
  for (const auto& shard : shards_) {
    const auto& s = shard->state().resolver.stats();
    out.granted += s.granted;
    out.queued += s.queued;
    out.stalls += s.stalls;
    out.war_hazards += s.war_hazards;
    out.waw_hazards += s.waw_hazards;
    out.raw_hazards += s.raw_hazards;
    out.defensive_drains += s.defensive_drains;
  }
  return out;
}

ShardedResolver::TableStats ShardedResolver::table_stats() const {
  TableStats out;
  for (const auto& shard : shards_) {
    const auto& dt = shard->state().table.stats();
    out.lookups += dt.lookups;
    out.lookup_probes += dt.lookup_probes;
    out.max_live_slots += dt.max_live_slots;
    out.longest_hash_chain =
        std::max(out.longest_hash_chain, dt.longest_hash_chain);
    out.ko_dummy_allocations += dt.ko_dummy_allocations;
    const auto& tp = shard->state().pool.stats();
    out.tp_dummy_slots += tp.dummy_slots_allocated;
    out.tp_max_used += tp.max_used_slots;
  }
  return out;
}

}  // namespace nexuspp::exec
