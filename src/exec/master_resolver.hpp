#pragma once
// MasterResolver: the exec-threads master's dependency resolver — one
// core::TaskPool + core::DependenceTable + core::Resolver, the Task Pool
// and Dependence Table the paper's Task Maestro owns (Fig. 2, Table IV).
//
// Only the master thread calls it (workers post finished ids back over
// exec/handoff.hpp), so nothing here is synchronised: with a single owner
// the cheapest synchronisation is none. Both match modes resolve in the
// one table — every overlapping interval meets there — with the same
// Listing-2 semantics, dummy-entry mechanics and `busy`-flag protocol as
// the simulated Maestro.
//
// Capacity behaviour mirrors the timed Maestro: a full pool/table yields a
// resumable stall (SubmitSession keeps its cursor; a retry never
// re-registers processed parameters), and structural failures (kick-off
// overflow with dummies disabled, oversized descriptors) are permanent and
// reported as such.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "core/types.hpp"

namespace nexuspp::exec {

/// Defaults to the core's, which are the paper's Table IV sizes.
struct MasterResolverConfig {
  core::MatchMode match_mode = core::MatchMode::kBaseAddr;
  /// Task Pool descriptor slots.
  std::uint32_t pool_capacity = core::TaskPoolConfig{}.capacity;
  /// Dependence Table entries.
  std::uint32_t table_capacity = core::DependenceTableConfig{}.capacity;
  /// Ids per kick-off list.
  std::uint32_t kick_off_capacity =
      core::DependenceTableConfig{}.kick_off_capacity;
  bool allow_dummies = true;  ///< dummy tasks + dummy entries

  /// Throws std::invalid_argument on zero capacities or a bad table config.
  void validate() const;
};

class MasterResolver {
 public:
  /// Caller-assigned task name in [0, gid_bound): a slot recycled once
  /// finish() has released it (ThreadedExecutor and starss::Runtime, with
  /// one slot per Task Pool descriptor), or a dense submission index.
  using GlobalId = std::uint64_t;

  /// `gid_bound` sizes the per-task id map: the bound on gids.
  MasterResolver(const MasterResolverConfig& config, std::uint64_t gid_bound);

  MasterResolver(const MasterResolver&) = delete;
  MasterResolver& operator=(const MasterResolver&) = delete;

  enum class Progress : std::uint8_t {
    kDone,        ///< fully registered; query session.ready()
    kStalled,     ///< pool or table out of space — retry after a finish
    kStructural,  ///< permanent failure; see session.failure()
  };

  /// Resumable registration of one task. On kStalled all completed work
  /// stays registered and the cursor resumes exactly where it stopped, so
  /// no parameter is ever processed twice.
  class SubmitSession {
   public:
    [[nodiscard]] Progress advance();

    /// True once the task has no unresolved dependencies — set either at
    /// kDone or never (a later finish() reports the task ready instead).
    /// Exactly one of the two paths fires per task.
    [[nodiscard]] bool ready() const noexcept { return ready_; }
    [[nodiscard]] const std::string& failure() const noexcept {
      return failure_;
    }

   private:
    friend class MasterResolver;
    SubmitSession(MasterResolver* owner, GlobalId gid, std::uint64_t serial,
                  std::uint64_t fn, std::vector<core::Param> params)
        : owner_(owner), gid_(gid), serial_(serial), fn_(fn),
          params_(std::move(params)) {}

    MasterResolver* owner_;
    GlobalId gid_;
    std::uint64_t serial_;
    std::uint64_t fn_;
    std::vector<core::Param> params_;
    std::size_t param_ = 0;  ///< next parameter to register
    std::string failure_;
    bool done_ = false;
    bool ready_ = false;
  };

  /// Starts registration of task `gid` (gid < gid_bound). Takes the
  /// parameter list by value so a caller can move it in: the submit path
  /// allocates nothing. A task without parameters is ready at once and
  /// never occupies a descriptor.
  [[nodiscard]] SubmitSession begin_submit(GlobalId gid, std::uint64_t serial,
                                           std::uint64_t fn,
                                           std::vector<core::Param> params);

  /// Handle Finished for completed task `gid`: releases its accesses,
  /// frees its descriptor, and fills `now_ready` (cleared first) with the
  /// tasks that became ready, in grant order. Afterwards `gid` may name a
  /// new task. The buffer is caller-owned so the release path never
  /// allocates once it has grown. Never needs new table space.
  void finish(GlobalId gid, std::vector<GlobalId>& now_ready);

  [[nodiscard]] const core::Resolver::Stats& resolver_stats() const noexcept {
    return resolver_.stats();
  }

  struct TableStats {
    std::uint64_t lookups = 0;
    std::uint64_t lookup_probes = 0;
    std::uint32_t max_live_slots = 0;  ///< Dependence Table highwater
    std::uint32_t longest_hash_chain = 0;
    std::uint64_t ko_dummy_allocations = 0;
    std::uint64_t tp_dummy_slots = 0;
    std::uint32_t tp_max_used = 0;  ///< Task Pool highwater
  };
  [[nodiscard]] TableStats table_stats() const;

 private:
  core::TaskPool pool_;
  core::DependenceTable table_;
  core::Resolver resolver_;
  /// gid -> its descriptor (kInvalidTask while unregistered or param-less).
  std::vector<core::TaskId> task_of_;
  /// Descriptor -> owning gid, for translating grants.
  std::vector<GlobalId> gid_of_;
  /// Scratch for the descriptors one finish grants; sized to the pool, so
  /// it never grows.
  std::vector<core::TaskId> grants_;
};

}  // namespace nexuspp::exec
