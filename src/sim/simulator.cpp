#include "sim/simulator.hpp"

namespace nexuspp::sim {

Simulator::~Simulator() {
  // Drop queued resumptions first (they point into frames we now destroy).
  while (!queue_.empty()) queue_.pop();
  for (auto& p : processes_) {
    if (p.handle) p.handle.destroy();
  }
}

void Simulator::spawn(Co<void> process, std::string name) {
  if (!process.valid()) throw SimError("spawn: invalid process");
  auto handle = process.release();
  handle.promise().escaped = &pending_exception_;
  processes_.push_back(NamedProcess{handle, std::move(name)});
  schedule_now(handle);
}

void Simulator::schedule_in(Time delay, std::coroutine_handle<> h) {
  if (delay < 0) throw SimError("schedule_in: negative delay");
  if (!h) throw SimError("schedule_in: null coroutine handle");
  queue_.push(Scheduled{now_ + delay, next_seq_++, h});
}

void Simulator::step(const Scheduled& item) {
  now_ = item.at;
  ++events_executed_;
  // A top-level process's exception lands in pending_exception_ (see
  // spawn), so run() stops on it after this step.
  item.handle.resume();
}

Time Simulator::run() {
  while (!queue_.empty()) {
    const Scheduled item = queue_.top();
    queue_.pop();
    step(item);
    if (pending_exception_) std::rethrow_exception(pending_exception_);
  }
  return now_;
}

Time Simulator::run_until(Time deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) {
    const Scheduled item = queue_.top();
    queue_.pop();
    step(item);
    if (pending_exception_) std::rethrow_exception(pending_exception_);
  }
  if (queue_.empty() && now_ < deadline) now_ = deadline;
  return now_;
}

std::size_t Simulator::live_process_count() const {
  std::size_t live = 0;
  for (const auto& p : processes_) {
    if (p.handle && !p.handle.done()) ++live;
  }
  return live;
}

std::vector<std::string> Simulator::live_process_names() const {
  std::vector<std::string> names;
  for (const auto& p : processes_) {
    if (p.handle && !p.handle.done()) names.push_back(p.name);
  }
  return names;
}

}  // namespace nexuspp::sim
