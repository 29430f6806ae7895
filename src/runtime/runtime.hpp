#pragma once
// starss::Runtime — a real, threaded StarSs-style task runtime.
//
// This is the reconstructed software substrate of the paper's programming
// model: the programmer submits tasks (any callable) together with their
// input/output/inout memory accesses, and the runtime derives dependencies
// from overlapping base addresses exactly like the `#pragma css task
// input(...) inout(...)` annotations do:
//
//     starss::Runtime rt(4);
//     rt.submit([&] { c = a + b; },
//               {starss::in(&a), starss::in(&b), starss::out(&c)});
//     rt.wait_all();
//
// Semantics match core::Resolver / core::GraphOracle: readers of the same
// address run concurrently (RAR), RAW / WAR / WAW order execution. The
// dependency tracker uses the classic last-writer + readers-since-write
// registration: a reader depends on the last unfinished writer; a writer
// depends on the last writer and on every unfinished reader since.
//
// This runtime is both a usable library (the examples compute real results
// with it) and the reference point the simulated systems are compared
// against conceptually; its per-task overheads motivate the
// rts::SoftwareRtsConfig defaults.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
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

  /// Submits a task. Dependencies against earlier unfinished tasks are
  /// derived from the access list (base-address comparison, like the
  /// paper's hardware). Safe to call from task bodies (nested submission).
  void submit(TaskFn fn, std::vector<Access> accesses);

  /// Blocks until every submitted task has finished (the `css barrier`
  /// pragma). Rethrows the first exception a task threw, if any.
  void wait_all();

  /// Blocks until every task that had declared an access on `ptr` at the
  /// time of this call has finished (the `css wait on(...)` pragma).
  /// Tasks submitted afterwards are not waited for.
  void wait_on(const void* ptr);

  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t dependency_edges = 0;
    std::uint64_t raw_hazards = 0;
    std::uint64_t war_hazards = 0;
    std::uint64_t waw_hazards = 0;
    unsigned max_concurrency = 0;  ///< peak simultaneously-running tasks
  };
  /// Snapshot of runtime statistics (thread-safe).
  [[nodiscard]] Stats stats() const;

 private:
  struct Task {
    TaskFn fn;
    std::vector<Access> accesses;
    std::uint32_t pending = 0;  ///< unfinished predecessors
    bool finished = false;
    std::vector<std::shared_ptr<Task>> successors;
  };
  using TaskPtr = std::shared_ptr<Task>;

  struct AddrState {
    TaskPtr last_writer;           ///< most recent writer (may be finished)
    std::vector<TaskPtr> readers;  ///< readers since the last writer
  };

  void worker_loop();
  void run_task(const TaskPtr& task);
  /// Registers a dependency edge pred -> succ if pred is unfinished.
  void add_edge_locked(const TaskPtr& pred, const TaskPtr& succ);

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;  ///< workers wait for ready tasks
  std::condition_variable idle_cv_;   ///< wait_all waits for completion
  std::deque<TaskPtr> ready_;
  std::unordered_map<const void*, AddrState> addresses_;
  std::vector<std::thread> workers_;
  bool shutdown_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t executed_ = 0;
  unsigned running_now_ = 0;
  std::exception_ptr first_exception_;
  Stats stats_;
};

}  // namespace nexuspp::starss
