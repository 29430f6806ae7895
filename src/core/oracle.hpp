#pragma once
// GraphOracle: an unbounded, dynamically-allocated reference implementation
// of the StarSs dependency semantics (what a software RTS with no capacity
// limits computes). Property tests submit identical task streams to the
// oracle and to the hardware structures (TaskPool + DependenceTable +
// Resolver, with their dummy tasks, bounded kick-off lists and hash
// collisions) and require identical ready-task behaviour — that is the
// paper's correctness claim for the dummy-task/dummy-entry mechanisms.
//
// The oracle implements both address-matching semantics (core::MatchMode):
// base-address matching (one AddrState per base address, the paper's
// scheme) and range matching (one access record per in-flight parameter;
// two accesses conflict iff their byte ranges overlap and either writes).
// The range implementation deliberately mirrors the range-mode Resolver's
// observable behaviour — per-access FIFO waiter lists, params processed in
// order — so differential tests can require identical grant order, while
// sharing no code or data structures with it.
//
// Tasks are identified by caller-chosen 64-bit keys, deliberately distinct
// from Task Pool indices so tests can correlate the two systems.

#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace nexuspp::core {

class GraphOracle {
 public:
  using Key = std::uint64_t;

  explicit GraphOracle(MatchMode mode = MatchMode::kBaseAddr)
      : mode_(mode) {}

  /// Registers a task and resolves its parameters. Returns true if the
  /// task has no unresolved dependencies (ready to run).
  bool submit(Key key, const std::vector<Param>& params);

  /// Completes a task; returns the tasks that became ready, in grant order.
  std::vector<Key> finish(Key key);

  [[nodiscard]] MatchMode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t pending_count() const noexcept {
    return tasks_.size();
  }
  /// Base-address mode: distinct tracked addresses. Range mode: in-flight
  /// access records.
  [[nodiscard]] std::size_t tracked_addr_count() const noexcept {
    return mode_ == MatchMode::kRange ? accesses_.size() : addrs_.size();
  }

  /// Validates a recorded completion order (e.g. from a
  /// core::CompletionRecorder watching the threaded executor) against the
  /// dependency graph the oracle derives for `tasks`, where task key k has
  /// parameter list tasks[k] and tasks are submitted in key order.
  ///
  /// Soundness: when the real runtime also admits tasks in key order, any
  /// dependency edge a -> b it ever enforced (or legitimately skipped
  /// because a finished before b arrived) still has completed(a) <
  /// completed(b), so checking the recorded order against the
  /// submit-everything-first oracle graph is exact, not conservative.
  ///
  /// Returns an empty string when the order is a legal execution
  /// (every task completes exactly once, only ever after all of its
  /// predecessors), else a description of the first violation.
  [[nodiscard]] static std::string validate_completion_order(
      MatchMode mode, const std::vector<std::vector<Param>>& tasks,
      const std::vector<std::uint64_t>& completion_order);

  /// Hazard census, counted exactly like Resolver::Stats so differential
  /// tests can compare the two and benches can report oracle-confirmed
  /// hazard counts per match mode.
  struct Stats {
    std::uint64_t raw_hazards = 0;
    std::uint64_t war_hazards = 0;
    std::uint64_t waw_hazards = 0;

    [[nodiscard]] std::uint64_t total() const noexcept {
      return raw_hazards + war_hazards + waw_hazards;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  // --- Base-address mode ------------------------------------------------------
  struct AddrState {
    bool writer_active = false;
    std::uint32_t readers = 0;
    bool writer_waits = false;
    std::deque<Key> waiting;
  };
  void submit_param_base(Key key, const Param& param);
  void release_reader(Addr addr, std::vector<Key>& ready);
  void release_writer(Addr addr, std::vector<Key>& ready);

  // --- Range mode -------------------------------------------------------------
  /// One in-flight parameter access (of a running *or* waiting task).
  struct Access;
  using AccessList = std::list<Access>;
  using BaseIndex = std::multimap<Addr, AccessList::iterator>;
  struct Access {
    Key owner = 0;
    Addr addr = 0;
    std::uint32_t size = 0;
    bool writes = false;
    std::deque<Key> waiting;  ///< tasks queued behind this access
    BaseIndex::iterator by_base{};    ///< its entry in access_by_base_
    BaseIndex::iterator by_writer{};  ///< in writer_by_base_, if it writes
  };
  void submit_param_range(Key key, const Param& param);
  void release_access(Key key, const Param& param, std::vector<Key>& ready);

  struct TaskState {
    std::vector<Param> params;
    std::uint32_t dep_count = 0;
  };

  [[nodiscard]] AccessMode mode_for(const TaskState& task, Addr addr) const;
  void grant(Key key, std::vector<Key>& ready);

  MatchMode mode_;
  std::unordered_map<Addr, AddrState> addrs_;  ///< base-address mode
  AccessList accesses_;                        ///< range mode, submit order
  /// Range-mode query indexes, mirroring the DependenceTable's interval
  /// index: the oracle doubles as the software RTS's production resolver,
  /// so overlap scans must not be linear in the in-flight window.
  BaseIndex access_by_base_;
  /// The writers alone: a read conflicts only with them, so a reader's
  /// scan skips the other readers of its address.
  BaseIndex writer_by_base_;
  std::unordered_multimap<Key, AccessList::iterator> access_by_owner_;
  std::uint32_t max_access_size_ = 0;
  std::unordered_map<Key, TaskState> tasks_;
  Stats stats_;
};

}  // namespace nexuspp::core
