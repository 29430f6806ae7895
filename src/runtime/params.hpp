#pragma once
// How starss::Runtime::submit() turns a task's declared accesses into Task
// Pool parameters. Internal to the runtime; tests call it directly.

#include <span>
#include <vector>

#include "core/types.hpp"
#include "runtime/runtime.hpp"

namespace nexuspp::starss {

/// The parameters submit() registers for `accesses`, written into `params`
/// (cleared first). Accesses to one base address become one parameter
/// with the combined mode (in + out gives inout) and the largest size, at
/// the first one's place; a list longer than one descriptor (8 accesses)
/// is put in address order first. Throws std::invalid_argument on a null
/// or empty access, or on more distinct addresses than the Dependence
/// Table holds.
void to_params(std::span<const Access> accesses,
               std::vector<core::Param>& params);

}  // namespace nexuspp::starss
