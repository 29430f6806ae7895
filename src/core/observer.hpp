#pragma once
// Execution observation hooks for runtimes that *actually run* tasks (the
// exec/ threaded backend) rather than simulate them.
//
// Simulated engines are deterministic functions of (config, stream), so
// their reports are self-validating against replay. A real concurrent
// executor is not: its completion order differs run to run, and the
// correctness claim shifts from "bit-identical report" to "every task's
// dependencies completed before it ran". The observer is how a harness
// captures the evidence for that claim without the executor knowing about
// tests: the executor emits submission/start/completion events, a recorder
// keeps the completion order, and GraphOracle::validate_completion_order
// checks it against the unbounded reference dependency graph.
//
// Contract required from emitters (and honored by exec::ThreadedExecutor):
//   - on_submitted fires in stream (serial) order, before the task can run;
//   - on_started fires before the task's kernel begins;
//   - on_completed fires after the kernel finishes but *before* the task's
//     accesses are released — so a dependant's completion event can never
//     be recorded ahead of its predecessor's.
// Callbacks may fire concurrently from many workers (and the master, where
// it runs tasks); implementations must be thread-safe.

#include <cstdint>
#include <mutex>
#include <vector>

namespace nexuspp::core {

class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  /// Task entered the runtime (stream order; called from the submit path).
  virtual void on_submitted(std::uint64_t serial) { (void)serial; }
  /// An executor is about to run the task's kernel. `worker` indexes the
  /// threads that run tasks: exec-threads' workers are 0..threads-1 and
  /// its master, which runs tasks while it waits, is `threads` (0 at
  /// threads=1, where it runs them all).
  virtual void on_started(std::uint64_t serial, std::uint32_t worker) {
    (void)serial;
    (void)worker;
  }
  /// The task's kernel finished; its accesses are not yet released.
  virtual void on_completed(std::uint64_t serial, std::uint32_t worker) {
    (void)serial;
    (void)worker;
  }
};

/// Thread-safe observer that records the global completion order — the
/// input GraphOracle::validate_completion_order checks.
class CompletionRecorder final : public ExecutionObserver {
 public:
  void on_completed(std::uint64_t serial, std::uint32_t worker) override {
    (void)worker;
    const std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(serial);
  }

  /// Snapshot of the completion order so far (serials, earliest first).
  [[nodiscard]] std::vector<std::uint64_t> order() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    order_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::uint64_t> order_;
};

}  // namespace nexuspp::core
