#pragma once
// Condition-style event: processes co_await event.wait(); notify_all
// schedules the waiters at the current time. Waiters must re-check their
// condition in a loop (condition-variable discipline) because another
// process may run first at the same timestamp.

#include <coroutine>
#include <deque>

#include "sim/simulator.hpp"

namespace nexuspp::sim {

class Event {
 public:
  explicit Event(Simulator& sim) noexcept : sim_(&sim) {}
  // Pinned: suspended waiters reference this object (see sim::Fifo).
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;
  Event(Event&&) = delete;
  Event& operator=(Event&&) = delete;

  [[nodiscard]] auto wait() {
    struct Awaiter {
      Event* event;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Wakes every waiter (scheduled in wait order at the current time).
  void notify_all() {
    while (!waiters_.empty()) {
      sim_->schedule_now(waiters_.front());
      waiters_.pop_front();
    }
  }

 private:
  Simulator* sim_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace nexuspp::sim
