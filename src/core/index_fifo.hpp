#pragma once
// A fixed-capacity FIFO of table indices: the paper's "TP Free indices"
// list, used by the Task Pool and the Dependence Table alike. The ring is
// allocated once at construction, so recycling a slot never touches the
// heap, and indices come back out in exactly the order they went in.

#include <cassert>
#include <cstdint>
#include <vector>

namespace nexuspp::core {

class IndexFifo {
 public:
  /// Starts full, holding 0 .. capacity-1 in ascending order: every slot
  /// of a fresh table is free.
  explicit IndexFifo(std::uint32_t capacity)
      : ring_(capacity), count_(capacity) {
    for (std::uint32_t i = 0; i < capacity; ++i) ring_[i] = i;
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Removes and returns the oldest index. Precondition: !empty().
  std::uint32_t pop() noexcept {
    assert(count_ > 0);
    const std::uint32_t index = ring_[head_];
    head_ = wrap(std::uint64_t{head_} + 1);
    --count_;
    return index;
  }

  /// Appends `index`. Precondition: the ring is not full — each index is
  /// freed at most once, so a table never pushes more than it popped.
  void push(std::uint32_t index) noexcept {
    assert(count_ < ring_.size());
    ring_[wrap(std::uint64_t{head_} + count_)] = index;
    ++count_;
  }

 private:
  /// `pos` < 2 x capacity, so one subtraction wraps it.
  [[nodiscard]] std::uint32_t wrap(std::uint64_t pos) const noexcept {
    return static_cast<std::uint32_t>(pos >= ring_.size() ? pos - ring_.size()
                                                          : pos);
  }

  std::vector<std::uint32_t> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
};

}  // namespace nexuspp::core
