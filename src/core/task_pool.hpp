#pragma once
// The Task Pool: Nexus++'s main task storage table (Table I of the paper).
//
// Each slot stores one Task Descriptor: function pointer, dependence
// counter (DC), number of dummy entries (nD), parameter count (nP) and up
// to `max_params` parameters. A task with more parameters than fit in one
// descriptor spills into *dummy tasks*: extra slots holding the overflow
// parameters, linked by replacing the last parameter slot with a pointer
// (Fig. 3). Inside Nexus++ a task is identified by the Task Pool index of
// its primary slot, so every access is a direct index — no searching.
//
// Free slots are recycled through a FIFO free-index list exactly like the
// paper's "TP Free indices" list.
//
// Storage is flat and fixed at construction: one slot array for the
// descriptor headers, one `capacity x max_params` parameter array (slot i
// owns row i), and a preallocated ring for the free-index list. Inserting
// and freeing descriptors never touches the heap.
//
// All mutating operations return a Cost receipt counting the slot reads and
// writes performed, which the timed layer converts into on-chip access
// cycles.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/index_fifo.hpp"
#include "core/types.hpp"

namespace nexuspp::core {

struct TaskPoolConfig {
  std::uint32_t capacity = 1024;  ///< number of Task Descriptor slots
  std::uint32_t max_params = 8;   ///< parameters per descriptor slot
  /// Nexus++ feature: spill wide parameter lists into dummy tasks. With
  /// this off the pool behaves like the original Nexus: tasks with more
  /// than max_params parameters can never be stored.
  bool allow_dummy_tasks = true;

  /// Throws std::invalid_argument if the configuration is unusable: zero
  /// capacity, max_params < 2 (a slot holds data + a chain pointer), or a
  /// `capacity x max_params` parameter table whose offsets overflow 32 bits.
  void validate() const;
};

class TaskPool {
 public:
  explicit TaskPool(TaskPoolConfig config);

  /// Number of slots a descriptor with `param_count` parameters occupies
  /// (primary + dummy tasks).
  [[nodiscard]] std::uint32_t slots_needed(std::size_t param_count) const;

  /// True if a descriptor with `param_count` parameters can be stored now.
  [[nodiscard]] bool can_insert(std::size_t param_count) const {
    return slots_needed(param_count) <= free_slot_count();
  }

  /// True if a descriptor with `param_count` parameters could *ever* be
  /// stored (in an otherwise empty pool).
  [[nodiscard]] bool can_ever_insert(std::size_t param_count) const {
    return slots_needed(param_count) <= config_.capacity;
  }

  struct Inserted {
    TaskId id;
    Cost cost;
  };
  /// Stores a descriptor (function, serial, parameters copied into the
  /// flat table); returns nullopt when not enough free slots are available
  /// (the Write TP block then stalls until tasks complete).
  [[nodiscard]] std::optional<Inserted> insert(std::uint64_t fn,
                                               std::uint64_t serial,
                                               std::span<const Param> params);
  /// insert() for a caller that already holds a TaskDescriptor.
  [[nodiscard]] std::optional<Inserted> insert(const TaskDescriptor& td) {
    return insert(td.fn, td.serial, td.params);
  }

  /// Frees a task's primary slot and its dummy chain, returning all indices
  /// to the free list.
  Cost free_task(TaskId id);

  // --- Descriptor metadata -------------------------------------------------

  [[nodiscard]] std::uint64_t fn(TaskId id) const;
  [[nodiscard]] std::uint64_t serial(TaskId id) const;
  [[nodiscard]] std::uint32_t param_count(TaskId id) const;  ///< paper's nP
  [[nodiscard]] std::uint32_t dummy_count(TaskId id) const;  ///< paper's nD

  [[nodiscard]] std::uint16_t dependence_count(TaskId id) const;
  Cost increment_dc(TaskId id);
  struct DecrementResult {
    std::uint16_t remaining;
    Cost cost;
  };
  DecrementResult decrement_dc(TaskId id);

  /// The paper's `busy` flag: marks a descriptor as under processing by one
  /// of the Task Maestro blocks (exclusive access).
  void set_busy(TaskId id, bool busy);
  [[nodiscard]] bool busy(TaskId id) const;

  // --- Parameter access ----------------------------------------------------

  /// The parameters stored in slot `index` itself (a primary slot or one
  /// dummy task), in order: a view into the flat parameter table, valid
  /// until the slot is freed. Empty for an unused slot. A task's full list
  /// is walked in place from its primary slot along slot_next_dummy(), at
  /// one slot read per descriptor slot (1 + dummy_count()).
  [[nodiscard]] std::span<const Param> slot_params(std::uint32_t index) const;

  struct ModeLookup {
    std::optional<AccessMode> mode;
    Cost cost;
  };
  /// Access mode of this task for base address `addr`, walking the
  /// parameter list (used by Handle Finished when draining kick-off lists).
  [[nodiscard]] ModeLookup mode_for(TaskId id, Addr addr) const;

  // --- Capacity & statistics -----------------------------------------------

  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return config_.capacity;
  }
  [[nodiscard]] std::uint32_t max_params() const noexcept {
    return config_.max_params;
  }
  [[nodiscard]] std::uint32_t free_slot_count() const noexcept {
    return free_.size();
  }
  [[nodiscard]] std::uint32_t used_slot_count() const noexcept {
    return config_.capacity - free_slot_count();
  }
  [[nodiscard]] bool empty() const noexcept {
    return free_slot_count() == config_.capacity;
  }

  struct Stats {
    std::uint64_t inserts = 0;
    std::uint64_t insert_failures = 0;  ///< Write TP had to stall
    std::uint64_t frees = 0;
    std::uint64_t dummy_slots_allocated = 0;
    std::uint32_t max_used_slots = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // --- Test/diagnostic introspection ---------------------------------------

  [[nodiscard]] bool slot_used(std::uint32_t index) const;
  [[nodiscard]] bool slot_is_dummy(std::uint32_t index) const;
  [[nodiscard]] TaskId slot_next_dummy(std::uint32_t index) const;

 private:
  /// Fixed-width descriptor header; its parameters live in row `index` of
  /// params_.
  struct Slot {
    std::uint64_t fn = 0;
    std::uint64_t serial = 0;
    std::uint32_t total_params = 0;
    std::uint32_t own_params = 0;  ///< parameters in this slot's own row
    TaskId next_dummy = kInvalidTask;
    std::uint16_t dc = 0;
    std::uint16_t n_dummies = 0;
    bool used = false;
    bool busy = false;
    bool is_dummy = false;
  };

  [[nodiscard]] const Slot& primary(TaskId id) const;
  [[nodiscard]] Slot& primary(TaskId id);
  /// Copies `params` into slot `index`'s row.
  void store_params(TaskId index, std::span<const Param> params);

  TaskPoolConfig config_;
  std::vector<Slot> slots_;
  /// capacity x max_params parameters; row i holds slot i's own list.
  std::vector<Param> params_;
  IndexFifo free_;  ///< the "TP Free indices" FIFO list
  Stats stats_;
};

}  // namespace nexuspp::core
