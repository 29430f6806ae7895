#pragma once
// Bounded FIFO channel between simulated processes.
//
// This models the hardware FIFO lists of the paper (TDs Sizes, New Tasks,
// Global Ready Tasks, per-core CiRdyTasks/CiFinTasks, ...): fixed capacity,
// write stalls the producer when full (e.g. "If this list is full, the
// Master Core stalls"), read stalls the consumer when empty.
//
// The implementation uses exact handoff rather than notify-and-retry:
// a blocked putter's item is moved in the moment a slot frees, and a blocked
// getter receives its item the moment one arrives. Waiters are served in
// arrival order, keeping runs deterministic.

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "sim/simulator.hpp"

namespace nexuspp::sim {

template <typename T>
class Fifo {
 public:
  Fifo(Simulator& sim, std::size_t capacity)
      : sim_(&sim), capacity_(capacity) {
    if (capacity_ == 0) throw SimError("Fifo capacity must be >= 1");
  }
  // Pinned: waiter lists hold coroutine handles that point back into this
  // object, so a copied or moved Fifo would leave dangling waiters.
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  Fifo(Fifo&&) = delete;
  Fifo& operator=(Fifo&&) = delete;

  /// Awaitable put: completes immediately if a slot (or a waiting getter)
  /// is available, otherwise suspends until one frees.
  [[nodiscard]] auto put(T value) {
    struct Awaiter {
      Fifo* fifo;
      T value;
      [[nodiscard]] bool await_ready() {
        return fifo->try_put_internal(value);
      }
      void await_suspend(std::coroutine_handle<> h) {
        fifo->putters_.push_back(WaitingPut{h, std::move(value)});
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, std::move(value)};
  }

  /// Awaitable get: completes immediately if an item is available,
  /// otherwise suspends until one arrives.
  [[nodiscard]] auto get() {
    struct Awaiter {
      Fifo* fifo;
      std::optional<T> result;
      [[nodiscard]] bool await_ready() {
        result = fifo->try_get();
        return result.has_value();
      }
      void await_suspend(std::coroutine_handle<> h) {
        fifo->getters_.push_back(WaitingGet{h, this});
      }
      T await_resume() {
        assert(result.has_value());
        return std::move(*result);
      }
    };
    return Awaiter{this, std::nullopt};
  }

  /// Non-blocking variants for the token-protocol lists and drain logic.
  [[nodiscard]] bool try_put(T value) { return try_put_internal(value); }
  [[nodiscard]] std::optional<T> try_get() {
    if (items_.empty()) return std::nullopt;
    T front = std::move(items_.front());
    items_.pop_front();
    // A freed slot immediately admits the earliest blocked putter.
    if (!putters_.empty()) {
      auto waiter = std::move(putters_.front());
      putters_.pop_front();
      items_.push_back(std::move(waiter.value));
      max_occupancy_ = std::max(max_occupancy_, items_.size());
      sim_->schedule_now(waiter.handle);
    }
    return front;
  }

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  /// Most items the list has held at once.
  [[nodiscard]] std::size_t max_occupancy() const noexcept {
    return max_occupancy_;
  }

 private:
  struct WaitingPut {
    std::coroutine_handle<> handle;
    T value;
  };
  struct WaitingGet {
    std::coroutine_handle<> handle;
    void* awaiter;  // type-erased Awaiter*, used to deliver the item
  };

  // Invariants: getters_ non-empty implies items_ empty;
  //             putters_ non-empty implies items_ full.

  bool try_put_internal(T& value) {
    if (!getters_.empty()) {
      // Hand the item straight to the earliest waiting getter.
      assert(items_.empty());
      auto waiter = getters_.front();
      getters_.pop_front();
      deliver_to_getter(waiter, std::move(value));
      return true;
    }
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    max_occupancy_ = std::max(max_occupancy_, items_.size());
    return true;
  }

  void deliver_to_getter(const WaitingGet& waiter, T value) {
    // The getter's Awaiter outlives its suspension; fill its result slot.
    using GetAwaiter =
        std::remove_reference_t<decltype(std::declval<Fifo&>().get())>;
    auto* awaiter = static_cast<GetAwaiter*>(waiter.awaiter);
    awaiter->result = std::move(value);
    sim_->schedule_now(waiter.handle);
  }

  Simulator* sim_;
  std::size_t capacity_;
  std::size_t max_occupancy_ = 0;
  std::deque<T> items_;
  std::deque<WaitingPut> putters_;
  std::deque<WaitingGet> getters_;
};

}  // namespace nexuspp::sim
