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

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
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
  [[nodiscard]] std::uint32_t slots_needed(std::size_t param_count) const {
    return param_count <= config_.max_params ? 1 : spilled_slots(param_count);
  }

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
  /// What a free slot holds. Slots are reset by copying it: `s = Slot{}`
  /// builds the temporary on the stack, and reloading it straddles the
  /// stores that just built it, which stalls until they reach the cache.
  static const Slot kEmptySlot;

  /// Throws std::out_of_range: `id` names no used slot. Out of line like
  /// the spill into dummy tasks below.
  [[noreturn]] static void bad_task(TaskId id);
  /// slots_needed() for more than max_params parameters.
  [[nodiscard]] std::uint32_t spilled_slots(std::size_t param_count) const;
  /// insert() for a descriptor that spills into dummy tasks.
  [[nodiscard]] std::optional<Inserted> insert_spilled(
      std::uint64_t fn, std::uint64_t serial, std::span<const Param> params);

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

// --- Inline fast paths -------------------------------------------------------
//
// Inserting and freeing a one-descriptor task, the DC and busy flags and
// the in-place parameter walk are defined here and forced inline, so the
// resolvers compile them into their own code (see dependence_table.hpp).
// A descriptor that spills into dummy tasks is stored out of line.

inline constexpr TaskPool::Slot TaskPool::kEmptySlot{};

[[gnu::always_inline]]
inline const TaskPool::Slot& TaskPool::primary(TaskId id) const {
  if (id >= slots_.size() || !slots_[id].used) [[unlikely]] bad_task(id);
  return slots_[id];
}

[[gnu::always_inline]]
inline TaskPool::Slot& TaskPool::primary(TaskId id) {
  return const_cast<Slot&>(std::as_const(*this).primary(id));
}

[[gnu::always_inline]]
inline void TaskPool::store_params(TaskId index,
                                   std::span<const Param> params) {
  std::copy(params.begin(), params.end(),
            params_.begin() + static_cast<std::ptrdiff_t>(
                                  std::size_t{index} * config_.max_params));
  slots_[index].own_params = static_cast<std::uint32_t>(params.size());
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline std::optional<TaskPool::Inserted> TaskPool::insert(
    std::uint64_t fn, std::uint64_t serial, std::span<const Param> params) {
  if (params.size() > config_.max_params) [[unlikely]] {
    return insert_spilled(fn, serial, params);
  }
  if (free_.empty()) return std::nullopt;
  const TaskId id = free_.pop();
  Slot& head = slots_[id];
  head = kEmptySlot;
  head.used = true;
  head.fn = fn;
  head.serial = serial;
  head.total_params = static_cast<std::uint32_t>(params.size());
  store_params(id, params);
  stats_.max_used_slots = std::max(stats_.max_used_slots, used_slot_count());
  return Inserted{id, Cost{0, 1}};
}

// NEXUS_HOT_PATH
[[gnu::always_inline]]
inline Cost TaskPool::free_task(TaskId id) {
  Cost cost;
  if (primary(id).is_dummy) [[unlikely]] {
    throw_logic_error("TaskPool::free_task on a dummy slot");
  }
  TaskId cur = id;
  while (cur != kInvalidTask) {
    Slot& slot = slots_[cur];
    assert(slot.used);
    const TaskId next = slot.next_dummy;
    slot = kEmptySlot;
    free_.push(cur);
    cost.writes += 1;
    cur = next;
  }
  return cost;
}

[[gnu::always_inline]]
inline std::uint64_t TaskPool::fn(TaskId id) const { return primary(id).fn; }
[[gnu::always_inline]]
inline std::uint64_t TaskPool::serial(TaskId id) const {
  return primary(id).serial;
}
[[gnu::always_inline]]
inline std::uint32_t TaskPool::param_count(TaskId id) const {
  return primary(id).total_params;
}
[[gnu::always_inline]]
inline std::uint32_t TaskPool::dummy_count(TaskId id) const {
  return primary(id).n_dummies;
}

[[gnu::always_inline]]
inline std::uint16_t TaskPool::dependence_count(TaskId id) const {
  return primary(id).dc;
}

[[gnu::always_inline]]
inline Cost TaskPool::increment_dc(TaskId id) {
  ++primary(id).dc;
  return Cost{1, 1};
}

[[gnu::always_inline]]
inline TaskPool::DecrementResult TaskPool::decrement_dc(TaskId id) {
  Slot& slot = primary(id);
  if (slot.dc == 0) [[unlikely]] {
    throw_logic_error("TaskPool: dependence counter underflow");
  }
  --slot.dc;
  return DecrementResult{slot.dc, Cost{1, 1}};
}

[[gnu::always_inline]]
inline void TaskPool::set_busy(TaskId id, bool busy) {
  primary(id).busy = busy;
}
[[gnu::always_inline]]
inline bool TaskPool::busy(TaskId id) const { return primary(id).busy; }

[[gnu::always_inline]]
inline std::span<const Param> TaskPool::slot_params(
    std::uint32_t index) const {
  if (index >= slots_.size()) return {};
  return {params_.data() + std::size_t{index} * config_.max_params,
          slots_[index].own_params};
}

[[gnu::always_inline]]
inline TaskPool::ModeLookup TaskPool::mode_for(TaskId id, Addr addr) const {
  ModeLookup out;
  (void)primary(id);
  for (TaskId cur = id; cur != kInvalidTask; cur = slots_[cur].next_dummy) {
    out.cost.reads += 1;
    for (const auto& p : slot_params(cur)) {
      if (p.addr == addr) {
        out.mode = p.mode;
        return out;
      }
    }
  }
  return out;
}

[[gnu::always_inline]]
inline bool TaskPool::slot_used(std::uint32_t index) const {
  return index < slots_.size() && slots_[index].used;
}
[[gnu::always_inline]]
inline bool TaskPool::slot_is_dummy(std::uint32_t index) const {
  return index < slots_.size() && slots_[index].used &&
         slots_[index].is_dummy;
}
[[gnu::always_inline]]
inline TaskId TaskPool::slot_next_dummy(std::uint32_t index) const {
  if (index >= slots_.size() || !slots_[index].used) return kInvalidTask;
  return slots_[index].next_dummy;
}

}  // namespace nexuspp::core
