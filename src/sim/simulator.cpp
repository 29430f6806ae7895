#include "sim/simulator.hpp"

namespace nexuspp::sim {

Simulator::~Simulator() {
  // Drop queued resumptions first (they point into frames we now destroy).
  while (!queue_.empty()) queue_.pop();
  for (auto handle : processes_) handle.destroy();
}

void Simulator::spawn(Co<void> process) {
  if (!process.valid()) throw SimError("spawn: invalid process");
  auto handle = process.release();
  handle.promise().escaped = &pending_exception_;
  processes_.push_back(handle);
  schedule_now(handle);
}

void Simulator::schedule_in(Time delay, std::coroutine_handle<> h) {
  if (delay < 0) throw SimError("schedule_in: negative delay");
  if (!h) throw SimError("schedule_in: null coroutine handle");
  queue_.push(Scheduled{now_ + delay, next_seq_++, h});
}

Time Simulator::run() {
  while (!queue_.empty()) {
    const Scheduled item = queue_.top();
    queue_.pop();
    now_ = item.at;
    ++events_executed_;
    // A top-level process's exception lands in pending_exception_ (see
    // spawn), so the loop stops on it after this resumption.
    item.handle.resume();
    if (pending_exception_) std::rethrow_exception(pending_exception_);
  }
  return now_;
}

}  // namespace nexuspp::sim
