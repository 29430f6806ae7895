#pragma once
// starss::Runtime — the StarSs-style task API on real threads.
//
// The programmer submits tasks (any callable) together with their
// input/output/inout memory accesses, and the runtime derives dependencies
// from their base addresses exactly like the `#pragma css task input(...)
// inout(...)` annotations do (the CppSs-style API, PAPERS.md):
//
//     starss::Runtime rt(4);
//     rt.submit([&] { c = a + b; },
//               {starss::in(&a), starss::in(&b), starss::out(&c)});
//     rt.wait_all();
//
// It is a thin front end over the exec Task Maestro core that
// exec-threads runs on: one exec::MasterResolver (the paper's Task Pool
// and Dependence Table with Listing-2 semantics, so readers of an address
// run concurrently and RAW / WAR / WAW order execution, as
// core::GraphOracle checks) and one exec::TaskHandoff to the worker
// threads. A task is named by a slot recycled FIFO from [0, the Task
// Pool's descriptor count). Workers only claim a slot, run its callable
// and post the slot back. The thread inside submit(), wait_all() or
// wait_on() acts as the Maestro: it registers tasks, releases posted
// completions and makes dependants ready. Accesses one task declares on
// the same base address are merged into one (in + out gives inout).
//
// Progress contract:
//  - Ready tasks run on the workers at any time, but dependants are
//    released, and nested submissions registered, only while some thread
//    is inside submit(), wait_all() or wait_on(). A program that submits
//    and then waits always completes; between its calls, a task whose
//    predecessors have finished waits for the next call.
//  - Back-pressure: at most one Task Pool's worth of tasks (1 024, the
//    paper's Table IV size) is registered and unreleased. At that bound
//    submit() releases posted completions, waiting for a worker when none
//    is posted, until a slot frees; it does not grow without limit.
//  - A submission that cannot take the Maestro role without waiting goes
//    into a channel the Maestro drains next to completions: one from a
//    task body, or from a second thread while another is inside the
//    runtime. From a task body submit() and stats() never wait, and
//    wait_all() / wait_on() throw std::logic_error (their caller's own
//    task could never finish). A second thread's submission is registered
//    by the next thread inside the runtime; it waits for the Maestro role
//    only when the channel already holds a Task Pool's worth of tasks.
//
// Stats count the tasks passed to submit(); the sentinel task wait_on()
// registers is not counted anywhere. The hazard and edge counts are
// core::Resolver's, one per access that had to queue (an access granted
// at once counts nothing).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/types.hpp"

namespace nexuspp::starss {

/// One declared memory access of a task.
struct Access {
  const void* ptr = nullptr;
  std::size_t bytes = 0;
  core::AccessMode mode = core::AccessMode::kIn;
};

template <typename T>
[[nodiscard]] Access in(const T* p, std::size_t count = 1) {
  return Access{p, sizeof(T) * count, core::AccessMode::kIn};
}
template <typename T>
[[nodiscard]] Access out(T* p, std::size_t count = 1) {
  return Access{p, sizeof(T) * count, core::AccessMode::kOut};
}
template <typename T>
[[nodiscard]] Access inout(T* p, std::size_t count = 1) {
  return Access{p, sizeof(T) * count, core::AccessMode::kInOut};
}

class Runtime {
 public:
  using TaskFn = std::function<void()>;

  /// Starts `num_threads` workers (defaults to hardware concurrency).
  explicit Runtime(unsigned num_threads = 0);

  /// Waits for all tasks, then joins the workers.
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Submits a task. Dependencies against earlier unreleased tasks are
  /// derived from the access list (base-address comparison, like the
  /// paper's hardware). Safe to call from task bodies (nested submission)
  /// and from several threads. Throws std::invalid_argument on an empty
  /// callable, a null or empty access, or more accesses than the
  /// Dependence Table holds.
  void submit(TaskFn fn, std::vector<Access> accesses);

  /// Blocks until every submitted task has finished (the `css barrier`
  /// pragma). Rethrows the first exception a task threw, if any; the
  /// runtime stays usable.
  void wait_all();

  /// Blocks until every task that had declared an access on `ptr` at the
  /// time of this call has finished (the `css wait on(...)` pragma).
  /// Tasks submitted afterwards are not waited for.
  void wait_on(const void* ptr);

  [[nodiscard]] unsigned thread_count() const noexcept;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t dependency_edges = 0;  ///< accesses that had to queue
    std::uint64_t raw_hazards = 0;
    std::uint64_t war_hazards = 0;
    std::uint64_t waw_hazards = 0;
    unsigned max_concurrency = 0;  ///< peak simultaneously-running tasks
  };
  /// Snapshot of runtime statistics (thread-safe, never waits).
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace nexuspp::starss
