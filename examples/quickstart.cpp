// Quickstart: the two halves of this project in ~80 lines.
//
//   1. The real StarSs-style runtime (starss::Runtime): submit tasks with
//      in/out/inout accesses; the runtime infers the dependency graph and
//      runs independent tasks in parallel.
//   2. The Nexus++ hardware simulator: the same dependency semantics
//      resolved by the simulated Task Maestro, reporting cycle-accurate
//      timing.
//
// Build & run:  ./build/examples/quickstart

#include <cmath>
#include <iostream>
#include <vector>

#include "engine/registry.hpp"
#include "runtime/runtime.hpp"
#include "trace/trace.hpp"

namespace starss = nexuspp::starss;

namespace {

/// Returns false when the task-parallel result is wrong.
bool real_runtime_demo() {
  std::cout << "--- starss::Runtime (real threads) ---\n";
  starss::Runtime rt(2);

  double a = 0.0;
  double b = 0.0;
  double c = 0.0;

  // a = 3; b = 4;            (independent -> run in parallel)
  // c = hypot(a, b);         (depends on both)
  rt.submit([&a] { a = 3.0; }, {starss::out(&a)});
  rt.submit([&b] { b = 4.0; }, {starss::out(&b)});
  rt.submit([&a, &b, &c] { c = std::sqrt(a * a + b * b); },
            {starss::in(&a), starss::in(&b), starss::out(&c)});
  rt.wait_all();

  std::cout << "hypot(" << a << ", " << b << ") = " << c << "\n";
  const auto stats = rt.stats();
  std::cout << "tasks: " << stats.executed
            << ", dependency edges: " << stats.dependency_edges << "\n\n";
  return c == 5.0;
}

void simulator_demo() {
  std::cout << "--- Nexus++ simulator (same graph, simulated hardware) ---\n";
  using nexuspp::core::in;
  using nexuspp::core::out;

  // The same 3-task diamond as above, as a trace: two independent
  // producers and one consumer. Addresses stand in for &a, &b, &c.
  std::vector<nexuspp::trace::TaskRecord> tasks(3);
  tasks[0].serial = 0;
  tasks[0].exec_time = nexuspp::sim::us(5);
  tasks[0].read_bytes = 256;
  tasks[0].write_bytes = 256;
  tasks[0].params = {out(0x1000, 8)};
  tasks[1] = tasks[0];
  tasks[1].serial = 1;
  tasks[1].params = {out(0x2000, 8)};
  tasks[2] = tasks[0];
  tasks[2].serial = 2;
  tasks[2].params = {in(0x1000, 8), in(0x2000, 8), out(0x3000, 8)};

  nexuspp::engine::EngineParams params;  // Table IV defaults otherwise
  params.num_workers = 2;
  const auto report =
      nexuspp::engine::EngineRegistry::builtins()
          .make("nexus++", params)
          ->run(nexuspp::trace::make_vector_stream(std::move(tasks)));

  std::cout << report.to_table("3-task diamond on 2 workers").to_string();
  std::cout << "\nThe two producers overlapped; the consumer waited for "
               "both (RAW), so the makespan is ~2 task times, not 3.\n";
}

}  // namespace

int main() {
  if (!real_runtime_demo()) {
    std::cerr << "FAILED: hypot(3, 4) computed by tasks is not 5\n";
    return 1;
  }
  simulator_demo();
  return 0;
}
