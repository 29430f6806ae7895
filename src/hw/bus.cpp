#include "hw/bus.hpp"

#include <stdexcept>

namespace nexuspp::hw {

void BusConfig::validate() const {
  if (word_bytes == 0) {
    throw std::invalid_argument("Bus: word_bytes must be >= 1");
  }
  if (cycle <= 0) throw std::invalid_argument("Bus: cycle must be positive");
  if (cycles_per_word == 0) {
    throw std::invalid_argument("Bus: cycles_per_word must be >= 1");
  }
}

}  // namespace nexuspp::hw
