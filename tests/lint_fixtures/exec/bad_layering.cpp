// Fixture: layering. exec/ may include its own layer, the layers below it
// and engine/run_report.hpp, the one downward edge; the engines are above
// it, so the second include is flagged.

#include "core/types.hpp"
#include "engine/engine.hpp"
#include "engine/run_report.hpp"
#include "exec/maestro.hpp"
// #include "runtime/runtime.hpp" (a comment, not an include)
