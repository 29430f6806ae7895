#include "core/task_pool.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace nexuspp::core {

void TaskPoolConfig::validate() const {
  if (capacity == 0) {
    throw std::invalid_argument("TaskPool capacity must be >= 1");
  }
  if (max_params < 2) {
    throw std::invalid_argument(
        "TaskPool max_params must be >= 2 (one parameter plus a dummy-chain "
        "pointer)");
  }
  const std::uint64_t params = std::uint64_t{capacity} * max_params;
  if (params > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "TaskPool max_params " + std::to_string(max_params) +
        " x capacity " + std::to_string(capacity) + " = " +
        std::to_string(params) +
        " parameters overflows the flat table's 32-bit index");
  }
}

namespace {

TaskPoolConfig validated(const TaskPoolConfig& config) {
  config.validate();
  return config;
}

}  // namespace

TaskPool::TaskPool(TaskPoolConfig config)
    : config_(validated(config)),
      slots_(config_.capacity),
      params_(std::size_t{config_.capacity} * config_.max_params),
      free_(config_.capacity) {}

void TaskPool::bad_task(TaskId id) {
  throw std::out_of_range("TaskPool: bad task id " + std::to_string(id));
}

std::uint32_t TaskPool::spilled_slots(std::size_t param_count) const {
  const std::size_t m = config_.max_params;
  if (!config_.allow_dummy_tasks) {
    // Classic Nexus: a wide task can never be stored. Report a demand that
    // exceeds any pool so can_insert/can_ever_insert are always false.
    return config_.capacity + 1;
  }
  // The primary slot holds m-1 parameters plus the chain pointer. Each
  // dummy holds m-1 parameters plus a pointer, except the last which holds
  // up to m.
  const std::size_t remaining = param_count - (m - 1);
  std::size_t dummies = 1;
  if (remaining > m) {
    dummies = 1 + (remaining - m + (m - 1) - 1) / (m - 1);
  }
  return static_cast<std::uint32_t>(1 + dummies);
}

// NEXUS_HOT_PATH
std::optional<TaskPool::Inserted> TaskPool::insert_spilled(
    std::uint64_t fn, std::uint64_t serial, std::span<const Param> params) {
  const std::uint32_t needed = slots_needed(params.size());
  if (needed > free_.size()) return std::nullopt;

  Cost cost;
  const std::size_t m = config_.max_params;
  const std::size_t total = params.size();

  // Allocate the primary slot.
  const TaskId id = free_.pop();
  Slot& head = slots_[id];
  head = kEmptySlot;
  head.used = true;
  head.fn = fn;
  head.serial = serial;
  head.total_params = static_cast<std::uint32_t>(total);
  head.n_dummies = static_cast<std::uint16_t>(needed - 1);
  cost.writes += 1;

  // Distribute parameters over the primary slot and the dummy chain.
  std::size_t next_param = m - 1;
  store_params(id, params.first(next_param));

  TaskId chain_tail = id;
  while (next_param < total) {
    const std::size_t remaining = total - next_param;
    const TaskId dummy_id = free_.pop();
    ++stats_.dummy_slots_allocated;
    Slot& dummy = slots_[dummy_id];
    dummy = kEmptySlot;
    dummy.used = true;
    dummy.is_dummy = true;
    const std::size_t take = (remaining <= m) ? remaining : (m - 1);
    store_params(dummy_id, params.subspan(next_param, take));
    next_param += take;
    slots_[chain_tail].next_dummy = dummy_id;
    chain_tail = dummy_id;
    cost.writes += 1;
  }

  stats_.max_used_slots = std::max(stats_.max_used_slots, used_slot_count());
  return Inserted{id, cost};
}

}  // namespace nexuspp::core
