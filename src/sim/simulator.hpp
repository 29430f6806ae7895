#pragma once
// The discrete-event simulation kernel (the project's SystemC substitute).
//
// Processes are Co<void> coroutines spawned on a Simulator. The kernel keeps
// a time-ordered queue of coroutine resumptions; ties at the same timestamp
// are broken by insertion order, which makes every run fully deterministic.
// The simulation ends when the queue drains: blocks suspended forever on
// events (hardware "servers") are normal, so higher layers decide whether a
// drained queue means completion or deadlock (see nexus::NexusSystem::run).

#include <coroutine>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <vector>

#include "sim/co.hpp"
#include "sim/time.hpp"

namespace nexuspp::sim {

/// Thrown when a process tried to schedule an event at a negative delay or
/// the kernel is used inconsistently.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Registers a top-level process and schedules its first resumption at
  /// the current time. The simulator owns the coroutine frame afterwards.
  void spawn(Co<void> process);

  /// Awaitable: suspends the current process for `delay` picoseconds.
  /// A zero delay still yields (delta-cycle semantics).
  [[nodiscard]] auto delay(Time d) {
    struct Awaiter {
      Simulator* sim;
      Time d;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim->schedule_in(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  /// Schedules `h` to resume `delay` picoseconds from now.
  void schedule_in(Time delay, std::coroutine_handle<> h);

  /// Schedules `h` to resume at the current time, after already-queued
  /// same-time events.
  void schedule_now(std::coroutine_handle<> h) { schedule_in(0, h); }

  /// Runs until the event queue is empty. Returns the final time.
  /// Rethrows the first exception that escaped any process.
  Time run();

  /// Resumptions executed so far.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }

 private:
  struct Scheduled {
    Time at;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };
  struct Later {
    [[nodiscard]] bool operator()(const Scheduled& a,
                                  const Scheduled& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue_;
  std::vector<Co<void>::handle_type> processes_;
  /// The first exception a top-level process let escape; each spawned
  /// promise points here, so finding it costs nothing per event.
  std::exception_ptr pending_exception_;
};

}  // namespace nexuspp::sim
