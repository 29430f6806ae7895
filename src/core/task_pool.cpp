#include "core/task_pool.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

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

std::uint32_t TaskPool::slots_needed(std::size_t param_count) const {
  const std::size_t m = config_.max_params;
  if (param_count <= m) return 1;
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
std::optional<TaskPool::Inserted> TaskPool::insert(
    std::uint64_t fn, std::uint64_t serial, std::span<const Param> params) {
  const std::uint32_t needed = slots_needed(params.size());
  if (needed > free_.size()) {
    ++stats_.insert_failures;
    return std::nullopt;
  }

  Cost cost;
  const std::size_t m = config_.max_params;
  const std::size_t total = params.size();

  // Allocate the primary slot.
  const TaskId id = free_.pop();
  Slot& head = slots_[id];
  head = Slot{};
  head.used = true;
  head.fn = fn;
  head.serial = serial;
  head.total_params = static_cast<std::uint32_t>(total);
  head.n_dummies = static_cast<std::uint16_t>(needed - 1);
  cost.writes += 1;

  // Distribute parameters over the primary slot and the dummy chain.
  std::size_t next_param = (total <= m) ? total : (m - 1);
  store_params(id, params.first(next_param));

  TaskId chain_tail = id;
  while (next_param < total) {
    const std::size_t remaining = total - next_param;
    const TaskId dummy_id = free_.pop();
    ++stats_.dummy_slots_allocated;
    Slot& dummy = slots_[dummy_id];
    dummy = Slot{};
    dummy.used = true;
    dummy.is_dummy = true;
    const std::size_t take = (remaining <= m) ? remaining : (m - 1);
    store_params(dummy_id, params.subspan(next_param, take));
    next_param += take;
    slots_[chain_tail].next_dummy = dummy_id;
    chain_tail = dummy_id;
    cost.writes += 1;
  }

  ++stats_.inserts;
  stats_.max_used_slots = std::max(stats_.max_used_slots, used_slot_count());
  return Inserted{id, cost};
}

void TaskPool::store_params(TaskId index, std::span<const Param> params) {
  std::copy(params.begin(), params.end(),
            params_.begin() + static_cast<std::ptrdiff_t>(
                                  std::size_t{index} * config_.max_params));
  slots_[index].own_params = static_cast<std::uint32_t>(params.size());
}

// NEXUS_HOT_PATH
Cost TaskPool::free_task(TaskId id) {
  Cost cost;
  const Slot& head = primary(id);
  if (head.is_dummy) {
    throw std::logic_error("TaskPool::free_task on a dummy slot");
  }
  TaskId cur = id;
  while (cur != kInvalidTask) {
    Slot& slot = slots_[cur];
    assert(slot.used);
    const TaskId next = slot.next_dummy;
    slot = Slot{};
    free_.push(cur);
    cost.writes += 1;
    cur = next;
  }
  ++stats_.frees;
  return cost;
}

const TaskPool::Slot& TaskPool::primary(TaskId id) const {
  if (id >= slots_.size() || !slots_[id].used) {
    throw std::out_of_range("TaskPool: bad task id " + std::to_string(id));
  }
  return slots_[id];
}

TaskPool::Slot& TaskPool::primary(TaskId id) {
  return const_cast<Slot&>(std::as_const(*this).primary(id));
}

std::uint64_t TaskPool::fn(TaskId id) const { return primary(id).fn; }
std::uint64_t TaskPool::serial(TaskId id) const { return primary(id).serial; }
std::uint32_t TaskPool::param_count(TaskId id) const {
  return primary(id).total_params;
}
std::uint32_t TaskPool::dummy_count(TaskId id) const {
  return primary(id).n_dummies;
}

std::uint16_t TaskPool::dependence_count(TaskId id) const {
  return primary(id).dc;
}

Cost TaskPool::increment_dc(TaskId id) {
  ++primary(id).dc;
  return Cost{1, 1};
}

TaskPool::DecrementResult TaskPool::decrement_dc(TaskId id) {
  Slot& slot = primary(id);
  if (slot.dc == 0) {
    throw std::logic_error("TaskPool: dependence counter underflow");
  }
  --slot.dc;
  return DecrementResult{slot.dc, Cost{1, 1}};
}

void TaskPool::set_busy(TaskId id, bool busy) { primary(id).busy = busy; }
bool TaskPool::busy(TaskId id) const { return primary(id).busy; }

std::span<const Param> TaskPool::slot_params(std::uint32_t index) const {
  if (index >= slots_.size()) return {};
  return {params_.data() + std::size_t{index} * config_.max_params,
          slots_[index].own_params};
}

TaskPool::ModeLookup TaskPool::mode_for(TaskId id, Addr addr) const {
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

bool TaskPool::slot_used(std::uint32_t index) const {
  return index < slots_.size() && slots_[index].used;
}
bool TaskPool::slot_is_dummy(std::uint32_t index) const {
  return index < slots_.size() && slots_[index].used &&
         slots_[index].is_dummy;
}
TaskId TaskPool::slot_next_dummy(std::uint32_t index) const {
  if (index >= slots_.size() || !slots_[index].used) return kInvalidTask;
  return slots_[index].next_dummy;
}

}  // namespace nexuspp::core
