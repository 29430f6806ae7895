#pragma once
// The simulated bank arbiter: timing for dependence-table operations spread
// over N banks.
//
// A Maestro block resolves one *round* at a time — all table operations for
// one parameter batch (Check Deps) or one finished task (Handle Finished).
// Within a round, operations on different banks proceed in parallel;
// operations that collide on the same bank serialize behind it. The
// RoundSchedule tracks one per-bank completion horizon per round (times are
// round-relative): charging `duration` on bank b starts at b's current
// horizon — the wait until then is the *conflict stall* the arbiter charges
// for the collision — and the round completes at the max horizon over all
// banks.
//
// With one bank every operation queues behind every other, the max horizon
// equals the serial sum, and the charged delays are the monolithic Task
// Maestro's serial charges — which is how nexus::NexusSystem models the
// paper's single Dependence Table as one bank. As banks grow, rounds
// shorten toward the longest single-bank chain and the conflict-wait
// telemetry falls — the two curves the bank-scaling bench plots.
//
// BankUsage is the run-global accounting sink shared by all blocks: busy
// cycles, conflict waits and operation counts per bank, from which the
// report derives utilization imbalance.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace nexuspp::bank {

/// Run-global per-bank accounting (shared across blocks and rounds).
class BankUsage {
 public:
  explicit BankUsage(std::uint32_t banks)
      : busy_(banks, 0), conflict_(banks, 0), ops_(banks, 0) {}

  void record(std::uint32_t bank, sim::Time duration, sim::Time waited) {
    busy_[bank] += duration;
    conflict_[bank] += waited;
    ++ops_[bank];
  }

  [[nodiscard]] std::uint32_t banks() const noexcept {
    return static_cast<std::uint32_t>(busy_.size());
  }
  [[nodiscard]] const std::vector<sim::Time>& busy() const noexcept {
    return busy_;
  }
  [[nodiscard]] const std::vector<sim::Time>& conflict() const noexcept {
    return conflict_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& ops() const noexcept {
    return ops_;
  }

  [[nodiscard]] sim::Time total_conflict_wait() const noexcept {
    sim::Time total = 0;
    for (const sim::Time t : conflict_) total += t;
    return total;
  }

  /// Max over banks of busy time divided by the mean (1.0 = perfectly
  /// balanced traffic; 0 when no operation was charged).
  [[nodiscard]] double busy_imbalance() const noexcept {
    sim::Time sum = 0;
    sim::Time peak = 0;
    for (const sim::Time t : busy_) {
      sum += t;
      peak = std::max(peak, t);
    }
    if (sum <= 0) return 0.0;
    const double mean =
        static_cast<double>(sum) / static_cast<double>(busy_.size());
    return static_cast<double>(peak) / mean;
  }

 private:
  std::vector<sim::Time> busy_;
  std::vector<sim::Time> conflict_;
  std::vector<std::uint64_t> ops_;
};

/// Per-block round scheduler. One instance per Maestro block (blocks pace
/// their own rounds); reset() starts a new round.
class RoundSchedule {
 public:
  explicit RoundSchedule(std::uint32_t banks) : horizon_(banks, 0) {}

  void reset() {
    std::fill(horizon_.begin(), horizon_.end(), 0);
    elapsed_ = 0;
  }

  /// Charges `duration` of table work on `bank`: the operation starts at
  /// the bank's current horizon (waiting that long counts as conflict
  /// stall) and extends it. Returns how much the round's completion time
  /// advanced — zero when the work hides entirely under another bank's
  /// longer chain. The block co_awaits exactly this delta.
  [[nodiscard]] sim::Time charge(std::uint32_t bank, sim::Time duration,
                                 BankUsage& usage) {
    const sim::Time waited = horizon_[bank];
    usage.record(bank, duration, waited);
    horizon_[bank] += duration;
    const sim::Time completed = std::max(elapsed_, horizon_[bank]);
    const sim::Time delta = completed - elapsed_;
    elapsed_ = completed;
    return delta;
  }

  /// Round-relative completion time so far.
  [[nodiscard]] sim::Time elapsed() const noexcept { return elapsed_; }

 private:
  std::vector<sim::Time> horizon_;
  sim::Time elapsed_ = 0;
};

}  // namespace nexuspp::bank
