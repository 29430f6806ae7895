#pragma once
// The resolver's former name. New code includes exec/master_resolver.hpp.

#include "exec/master_resolver.hpp"

namespace nexuspp::exec {

/// Kept only for perfbench/src/replay.cpp, which still spells the old name.
using ShardedResolver = MasterResolver;

}  // namespace nexuspp::exec
