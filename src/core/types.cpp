#include "core/types.hpp"

#include <algorithm>
#include <stdexcept>

namespace nexuspp::core {

void throw_logic_error(const char* what) { throw std::logic_error(what); }

MatchMode match_mode_from_string(const std::string& name) {
  if (name == "base-addr" || name == "base") return MatchMode::kBaseAddr;
  if (name == "range") return MatchMode::kRange;
  throw std::invalid_argument("unknown match mode '" + name +
                              "' (expected base-addr or range)");
}

std::string TaskDescriptor::validate() const {
  std::vector<Addr> addrs;
  addrs.reserve(params.size());
  for (const auto& p : params) {
    if (p.size == 0) {
      return "parameter with zero size at address " + std::to_string(p.addr);
    }
    addrs.push_back(p.addr);
  }
  std::sort(addrs.begin(), addrs.end());
  const auto dup = std::adjacent_find(addrs.begin(), addrs.end());
  if (dup != addrs.end()) {
    return "duplicate parameter base address " + std::to_string(*dup) +
           " (use a single inout parameter instead)";
  }
  return {};
}

}  // namespace nexuspp::core
