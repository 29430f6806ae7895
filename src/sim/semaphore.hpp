#pragma once
// Counting semaphore for modeling limited hardware resources (e.g. the
// paper's "no more than 32 tasks can access the memory at a given time").
// Exact handoff: release() passes its permit straight to the earliest
// blocked acquirer, preserving arrival order and determinism.

#include <coroutine>
#include <cstdint>
#include <deque>

#include "sim/simulator.hpp"

namespace nexuspp::sim {

class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t permits)
      : sim_(&sim), permits_(permits), capacity_(permits) {
    if (permits <= 0) throw SimError("Semaphore permits must be >= 1");
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  /// Awaitable acquire of one permit (FIFO order among blocked acquirers:
  /// a permit is free only while nobody waits).
  [[nodiscard]] auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      [[nodiscard]] bool await_ready() {
        if (sem->permits_ == 0) return false;
        --sem->permits_;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Returns a permit, admitting the earliest blocked acquirer if any.
  void release() {
    if (!waiters_.empty()) {
      sim_->schedule_now(waiters_.front());
      waiters_.pop_front();
      return;
    }
    if (permits_ == capacity_) {
      throw SimError("Semaphore::release: exceeded capacity");
    }
    ++permits_;
  }

 private:
  Simulator* sim_;
  std::int64_t permits_;
  std::int64_t capacity_;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace nexuspp::sim
