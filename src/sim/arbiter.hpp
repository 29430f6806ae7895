#pragma once
// Round-robin arbiter over N one-bit request lines.
//
// Models the paper's Send TDs and Handle Finished blocks, which
// "continuously check the requests from the different Task Controllers and
// whenever [they find] an active one" serve it, resuming the scan after the
// last grant (fair round-robin). raise(i) corresponds to a Task Controller
// asserting its 1-bit signal; next() suspends until some line is active and
// returns (and clears) the granted line.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/co.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"

namespace nexuspp::sim {

class RoundRobinArbiter {
 public:
  RoundRobinArbiter(Simulator& sim, std::size_t lines)
      : lines_(lines), pending_(lines, 0), any_raised_(sim) {
    if (lines == 0) throw SimError("RoundRobinArbiter: zero lines");
  }
  // Pinned: next() coroutines hold `this` across suspension on any_raised_.
  RoundRobinArbiter(const RoundRobinArbiter&) = delete;
  RoundRobinArbiter& operator=(const RoundRobinArbiter&) = delete;
  RoundRobinArbiter(RoundRobinArbiter&&) = delete;
  RoundRobinArbiter& operator=(RoundRobinArbiter&&) = delete;

  /// Asserts request line `i`. Raises are *counted*: a Task Controller that
  /// completes two buffered tasks back-to-back keeps its line active until
  /// both completions have been granted (the paper's acknowledge protocol).
  void raise(std::size_t i) {
    if (i >= lines_) throw SimError("RoundRobinArbiter::raise: bad line");
    ++pending_[i];
    ++raised_total_;
    any_raised_.notify_all();
  }

  /// Suspends until a line is active; grants lines in round-robin order
  /// starting after the previously granted line; consumes one raise of the
  /// granted line.
  [[nodiscard]] Co<std::size_t> next() {
    for (;;) {
      if (raised_total_ > 0) {
        for (std::size_t step = 1; step <= lines_; ++step) {
          const std::size_t idx = (last_grant_ + step) % lines_;
          if (pending_[idx] > 0) {
            --pending_[idx];
            --raised_total_;
            last_grant_ = idx;
            co_return idx;
          }
        }
      }
      co_await any_raised_.wait();
    }
  }

 private:
  std::size_t lines_;
  std::vector<std::uint32_t> pending_;
  std::size_t raised_total_ = 0;
  std::size_t last_grant_ = 0;
  Event any_raised_;
};

}  // namespace nexuspp::sim
