#include "core/oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nexuspp::core {

bool GraphOracle::submit(Key key, const std::vector<Param>& params) {
  auto [it, inserted] = tasks_.emplace(key, TaskState{params, 0});
  if (!inserted) {
    throw std::logic_error("GraphOracle::submit: duplicate task key");
  }
  for (const auto& param : params) {
    if (mode_ == MatchMode::kRange) {
      submit_param_range(key, param);
    } else {
      submit_param_base(key, param);
    }
  }
  return it->second.dep_count == 0;
}

void GraphOracle::submit_param_base(Key key, const Param& param) {
  TaskState& task = tasks_.at(key);
  const bool reader_only = param.mode == AccessMode::kIn;
  auto [ait, fresh] = addrs_.emplace(param.addr, AddrState{});
  AddrState& state = ait->second;

  if (fresh) {
    if (reader_only) {
      state.readers = 1;
    } else {
      state.writer_active = true;
    }
    return;
  }

  if (reader_only) {
    if (!state.writer_active && !state.writer_waits) {
      ++state.readers;
    } else {
      state.waiting.push_back(key);
      ++task.dep_count;
      ++stats_.raw_hazards;
    }
  } else {
    state.waiting.push_back(key);
    ++task.dep_count;
    if (!state.writer_active) {
      state.writer_waits = true;
      ++stats_.war_hazards;
    } else {
      ++stats_.waw_hazards;
    }
  }
}

void GraphOracle::submit_param_range(Key key, const Param& param) {
  TaskState& task = tasks_.at(key);
  const bool writer = writes(param.mode);
  // Window scan over the base-sorted index: only accesses with base in
  // [addr - max_size, addr + size) can intersect the query.
  const Addr scan_from =
      param.addr > max_access_size_ ? param.addr - max_access_size_ : 0;
  const Addr query_end = param.addr + param.size;
  // A reader conflicts only with writers (read-after-read is no hazard).
  // Each access queues the task at most once, so the scan order does not
  // change any waiter list.
  const BaseIndex& index = writer ? access_by_base_ : writer_by_base_;
  for (auto it = index.lower_bound(scan_from);
       it != index.end() && it->first < query_end; ++it) {
    Access& access = *it->second;
    if (access.owner == key) continue;  // own earlier params never conflict
    if (!ranges_overlap(param.addr, param.size, access.addr, access.size)) {
      continue;
    }
    access.waiting.push_back(key);
    ++task.dep_count;
    if (!writer) {
      ++stats_.raw_hazards;
    } else if (access.writes) {
      ++stats_.waw_hazards;
    } else {
      ++stats_.war_hazards;
    }
  }
  const auto inserted = accesses_.insert(
      accesses_.end(), Access{key, param.addr, param.size, writer, {}});
  inserted->by_base = access_by_base_.emplace(param.addr, inserted);
  if (writer) {
    inserted->by_writer = writer_by_base_.emplace(param.addr, inserted);
  }
  access_by_owner_.emplace(key, inserted);
  max_access_size_ = std::max(max_access_size_, param.size);
}

AccessMode GraphOracle::mode_for(const TaskState& task, Addr addr) const {
  for (const auto& p : task.params) {
    if (p.addr == addr) return p.mode;
  }
  throw std::logic_error("GraphOracle: task has no parameter for address");
}

void GraphOracle::grant(Key key, std::vector<Key>& ready) {
  auto it = tasks_.find(key);
  if (it == tasks_.end() || it->second.dep_count == 0) {
    throw std::logic_error("GraphOracle::grant: bad waiter state");
  }
  if (--it->second.dep_count == 0) ready.push_back(key);
}

void GraphOracle::release_reader(Addr addr, std::vector<Key>& ready) {
  auto it = addrs_.find(addr);
  if (it == addrs_.end() || it->second.readers == 0) {
    throw std::logic_error("GraphOracle: releasing untracked reader");
  }
  AddrState& state = it->second;
  if (--state.readers > 0) return;

  if (!state.writer_waits) {
    addrs_.erase(it);
    return;
  }
  const Key writer = state.waiting.front();
  state.waiting.pop_front();
  state.writer_active = true;
  state.writer_waits = false;
  grant(writer, ready);
}

void GraphOracle::release_writer(Addr addr, std::vector<Key>& ready) {
  auto it = addrs_.find(addr);
  if (it == addrs_.end() || !it->second.writer_active) {
    throw std::logic_error("GraphOracle: releasing untracked writer");
  }
  AddrState& state = it->second;

  if (state.waiting.empty()) {
    addrs_.erase(it);
    return;
  }

  std::uint32_t granted_readers = 0;
  while (!state.waiting.empty()) {
    const Key front = state.waiting.front();
    const AccessMode mode = mode_for(tasks_.at(front), addr);
    if (mode == AccessMode::kIn) {
      state.waiting.pop_front();
      ++granted_readers;
      grant(front, ready);
      continue;
    }
    if (granted_readers == 0) {
      // WAW: hand the address straight to the next writer.
      state.waiting.pop_front();
      grant(front, ready);
      return;  // writer_active stays true
    }
    state.writer_waits = true;
    break;
  }
  state.writer_active = false;
  state.readers = granted_readers;
}

void GraphOracle::release_access(Key key, const Param& param,
                                 std::vector<Key>& ready) {
  auto [lo, hi] = access_by_owner_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    const AccessList::iterator access = it->second;
    if (access->addr != param.addr) continue;
    // Every waiter was queued behind exactly this access: drain in FIFO
    // order, mirroring the range-mode Resolver's kick-off pop loop.
    for (const Key waiter : access->waiting) grant(waiter, ready);
    access_by_base_.erase(access->by_base);
    if (access->writes) writer_by_base_.erase(access->by_writer);
    access_by_owner_.erase(it);
    accesses_.erase(access);
    return;
  }
  throw std::logic_error("GraphOracle: releasing untracked access");
}

std::vector<GraphOracle::Key> GraphOracle::finish(Key key) {
  auto it = tasks_.find(key);
  if (it == tasks_.end()) {
    throw std::logic_error("GraphOracle::finish: unknown task");
  }
  if (it->second.dep_count != 0) {
    throw std::logic_error("GraphOracle::finish: task was not ready");
  }
  // Move the parameter list out so releases can look up *other* tasks.
  const std::vector<Param> params = std::move(it->second.params);
  tasks_.erase(it);

  std::vector<Key> ready;
  for (const auto& param : params) {
    if (mode_ == MatchMode::kRange) {
      release_access(key, param, ready);
    } else if (param.mode == AccessMode::kIn) {
      release_reader(param.addr, ready);
    } else {
      release_writer(param.addr, ready);
    }
  }
  return ready;
}

std::string GraphOracle::validate_completion_order(
    MatchMode mode, const std::vector<std::vector<Param>>& tasks,
    const std::vector<std::uint64_t>& completion_order) {
  if (completion_order.size() != tasks.size()) {
    return "completion order has " + std::to_string(completion_order.size()) +
           " entries for " + std::to_string(tasks.size()) + " tasks";
  }
  GraphOracle oracle(mode);
  // Submit everything in key order; `ready` tracks which tasks currently
  // have no unfinished predecessors.
  std::vector<char> ready(tasks.size(), 0);
  std::vector<char> completed(tasks.size(), 0);
  for (std::uint64_t k = 0; k < tasks.size(); ++k) {
    if (oracle.submit(k, tasks[k])) ready[k] = 1;
  }
  for (std::size_t pos = 0; pos < completion_order.size(); ++pos) {
    const std::uint64_t k = completion_order[pos];
    if (k >= tasks.size()) {
      return "completion order entry " + std::to_string(pos) +
             " names unknown task " + std::to_string(k);
    }
    if (completed[k] != 0) {
      return "task " + std::to_string(k) + " completed twice (position " +
             std::to_string(pos) + ")";
    }
    if (ready[k] == 0) {
      return "task " + std::to_string(k) + " completed (position " +
             std::to_string(pos) +
             ") before all of its dependencies had completed";
    }
    completed[k] = 1;
    for (const auto granted : oracle.finish(k)) ready[granted] = 1;
  }
  return {};
}

}  // namespace nexuspp::core
