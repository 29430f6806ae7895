#pragma once
// On-chip word bus between the master core and the Task Maestro.
//
// The paper models an 8-byte-wide bus: a submission starts with a
// handshaking word (5 cycles of initial delay) after which the Task
// Descriptor follows as one word carrying the task ID + function pointer
// plus one word per parameter. The paper's text says "each word takes 2
// cycles (2 GB/s bus bandwidth)" while its own worked examples
// (4 parameters -> 10 cycles, 8 parameters -> 14 cycles) only work out as
// 5 + (1+P) x 1 cycles. The default follows the *stated bandwidth*
// (2 cycles/word at 500 MHz x 8 B = 2 GB/s); both knobs are configurable.
//
// The master core is the bus's only sender and sends one descriptor at a
// time, so a transfer never queues: the bus is its timing alone, and the
// master waits transfer_time(1 + P) per descriptor.

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace nexuspp::hw {

struct BusConfig {
  std::uint32_t word_bytes = 8;
  std::uint32_t handshake_cycles = 5;
  std::uint32_t cycles_per_word = 2;  ///< 8 B / (2 x 2 ns) = 2 GB/s
  sim::Time cycle = sim::ns(2);  ///< Nexus++ clock: 500 MHz

  void validate() const;

  /// Cycles a transfer of `words` words occupies the bus.
  [[nodiscard]] std::uint64_t transfer_cycles(
      std::size_t words) const noexcept {
    return handshake_cycles +
           static_cast<std::uint64_t>(words) * cycles_per_word;
  }

  /// Duration of a transfer of `words` words.
  [[nodiscard]] sim::Time transfer_time(std::size_t words) const noexcept {
    return static_cast<sim::Time>(transfer_cycles(words)) * cycle;
  }
};

}  // namespace nexuspp::hw
