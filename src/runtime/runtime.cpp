#include "runtime/runtime.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chk/chk.hpp"
#include "exec/maestro.hpp"
#include "runtime/params.hpp"

namespace nexuspp::starss {

namespace {

using Slot = std::uint64_t;

/// The resolver configuration every Runtime uses: MasterResolverConfig's
/// defaults, the paper's Table IV sizes.
constexpr exec::MasterResolverConfig kConfig{};
/// Tasks registered and unreleased at most: one per Task Pool descriptor,
/// so the pool only stalls a registration when tasks spill into dummies.
constexpr std::uint32_t kSlots = kConfig.pool_capacity;
constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

/// The Runtime whose worker the calling thread is, if any.
thread_local const void* tls_worker_of = nullptr;

/// Adds to a statistic only the Maestro writes. Relaxed: stats() reads it
/// on any thread and orders nothing by it.
void bump(chk::Atomic<std::uint64_t>& counter, std::uint64_t by) {
  counter.store(counter.load(std::memory_order_relaxed) + by,
                std::memory_order_relaxed);
}

/// A wait from a task body could never return: its own task is in flight.
void refuse_task_body(const void* runtime, const char* call) {
  if (tls_worker_of == runtime) {
    throw std::logic_error(std::string("Runtime::") + call +
                           " called from a task body");
  }
}

/// Lists of up to one descriptor's worth of accesses merge duplicates by a
/// scan, in declaration order; longer lists sort by address first.
constexpr std::size_t kScanMerge = core::TaskPoolConfig{}.max_params;

/// Folds `p` into `into`, a parameter on the same base address: the
/// combined mode and the larger size.
void merge(core::Param& into, const core::Param& p) {
  const bool reads = core::reads(into.mode) || core::reads(p.mode);
  const bool writes = core::writes(into.mode) || core::writes(p.mode);
  into.mode = !writes ? core::AccessMode::kIn
              : reads ? core::AccessMode::kInOut
                      : core::AccessMode::kOut;
  into.size = std::max(into.size, p.size);
}

}  // namespace

// Accesses to one base address merge because the resolver would otherwise
// queue the task behind its own first access.
void to_params(std::span<const Access> accesses,
               std::vector<core::Param>& params) {
  params.clear();
  const bool scan = accesses.size() <= kScanMerge;
  for (const Access& a : accesses) {
    if (a.ptr == nullptr || a.bytes == 0) {
      throw std::invalid_argument("Runtime::submit: bad access");
    }
    const core::Param p{
        reinterpret_cast<core::Addr>(a.ptr),
        static_cast<std::uint32_t>(std::min<std::size_t>(
            a.bytes, std::numeric_limits<std::uint32_t>::max())),
        a.mode};
    if (scan) {
      const auto same = std::find_if(
          params.begin(), params.end(),
          [&p](const core::Param& q) { return q.addr == p.addr; });
      if (same != params.end()) {
        merge(*same, p);
        continue;
      }
    }
    params.push_back(p);
  }
  if (!scan) {
    std::sort(params.begin(), params.end(),
              [](const core::Param& a, const core::Param& b) {
                return a.addr < b.addr;
              });
    std::size_t kept = 0;
    for (const core::Param& p : params) {
      if (kept > 0 && params[kept - 1].addr == p.addr) {
        merge(params[kept - 1], p);
      } else {
        params[kept++] = p;
      }
    }
    params.resize(kept);
  }
  // More distinct addresses than table entries could never register.
  if (params.size() > kConfig.table_capacity) {
    throw std::invalid_argument(
        "Runtime::submit: more accesses than the dependence table holds (" +
        std::to_string(kConfig.table_capacity) + ")");
  }
}

/// The front end the Maestro core calls: a slot's payload is its task's
/// callable.
struct Runtime::Impl {
  using Payload = TaskFn;
  /// The master never runs a task body: a body may wait for the very
  /// thread acting as the master to go on (exec/maestro.hpp).
  static constexpr bool kMasterRunsTasks = false;

  /// A task waiting in the channel for the Maestro to register it.
  struct Submission {
    TaskFn fn;
    std::vector<core::Param> params;
  };

  explicit Impl(unsigned workers)
      : threads(workers), core(kConfig, workers, *this) {
    params.reserve(kScanMerge);
    core.start();
  }

  // --- Workers ---------------------------------------------------------------

  void run(std::uint64_t /*serial*/, TaskFn& body, std::uint32_t /*worker*/) {
    tls_worker_of = this;
    try {
      body();
    } catch (...) {
      const std::lock_guard<chk::Mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    body = nullptr;  // drop the captures here, off the Maestro's path
  }

  // --- Any thread ------------------------------------------------------------

  /// Hands a submission to the Maestro without waiting.
  void enqueue(TaskFn fn, std::vector<core::Param> params) {
    const std::lock_guard<chk::Mutex> lock(channel_mu);
    channel.push_back(Submission{std::move(fn), std::move(params)});
    // Relaxed: a hint. A task body's enqueue happens before its post, so
    // the Maestro that drains the post sees the count.
    channel_size.store(channel.size(), std::memory_order_relaxed);
  }

  // --- The Maestro: only the thread holding `maestro` ------------------------

  /// Registers one task, named in `slot`. True when it is ready at once,
  /// for the caller to make ready. wait_on's sentinel is not `counted`.
  bool add(TaskFn fn, std::span<const core::Param> task_params, Slot& slot,
           bool counted) {
    const core::Resolver::Stats before = core.resolver().resolver_stats();
    const auto outcome = core.submit(serial++, 0, task_params, std::move(fn),
                                     slot, [](bool) {});
    if (outcome == Core::Outcome::kStructural) {
      throw std::invalid_argument("Runtime::submit: " + core.failure());
    }
    if (outcome == Core::Outcome::kStopped) stopped();
    if (counted) {
      // Only registration counts hazards, so the difference is this
      // task's.
      const core::Resolver::Stats& now = core.resolver().resolver_stats();
      bump(edges, now.queued - before.queued);
      bump(raw, now.raw_hazards - before.raw_hazards);
      bump(war, now.war_hazards - before.war_hazards);
      bump(waw, now.waw_hazards - before.waw_hazards);
    }
    return outcome == Core::Outcome::kReady;
  }

  [[noreturn]] void stopped() const {
    throw std::logic_error("starss::Runtime: " + core.failure());
  }

  void released(Slot slot) {
    if (slot == sentinel) {
      sentinel = kNoSlot;
    } else {
      bump(executed, 1);
    }
  }

  bool release_inline(Slot slot) const { return slot == sentinel; }

  /// Releases posted completions, or waits for one; throws when none
  /// can ever come.
  void progress() {
    if (!core.progress()) stopped();
  }

  /// Registers what the channel holds, in submission order.
  void register_channel() {
    // Relaxed: the lock below orders the entries themselves.
    if (channel_size.load(std::memory_order_relaxed) == 0) return;
    {
      const std::lock_guard<chk::Mutex> lock(channel_mu);
      incoming.swap(channel);
      channel_size.store(0, std::memory_order_relaxed);
    }
    for (Submission& s : incoming) {
      Slot slot = 0;
      if (add(std::move(s.fn), s.params, slot, true)) {
        core.make_ready(&slot, 1);
      }
    }
    incoming.clear();
  }

  const unsigned threads;

  // Maestro-owned: touched only under `maestro`.
  std::uint64_t serial = 0;
  Slot sentinel = kNoSlot;  ///< wait_on's task while it is registered
  std::vector<core::Param> params;  ///< the submitting task's parameters
  std::vector<Submission> incoming;  ///< the channel batch being registered
  chk::Mutex maestro;  ///< held by the thread acting as the Maestro

  // The submission channel: any thread -> the Maestro.
  chk::Mutex channel_mu;
  std::vector<Submission> channel;  ///< guarded by channel_mu
  chk::Atomic<std::size_t> channel_size{0};

  // Statistics, readable from any thread.
  chk::Atomic<std::uint64_t> submitted{0};
  chk::Atomic<std::uint64_t> executed{0};  ///< written by the Maestro
  chk::Atomic<std::uint64_t> edges{0};
  chk::Atomic<std::uint64_t> raw{0};
  chk::Atomic<std::uint64_t> war{0};
  chk::Atomic<std::uint64_t> waw{0};

  chk::Mutex error_mu;
  std::exception_ptr first_error;  ///< guarded by error_mu

  /// Last: its workers start once everything they touch exists.
  using Core = exec::Maestro<Impl>;
  Core core;
};

Runtime::Runtime(unsigned num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  impl_ = std::make_unique<Impl>(num_threads);
}

Runtime::~Runtime() {
  try {
    wait_all();
  } catch (...) {
    // Destructor must not throw; wait_all() rethrows task exceptions when
    // called explicitly.
  }
  (void)impl_->core.join();
}

unsigned Runtime::thread_count() const noexcept { return impl_->threads; }

void Runtime::submit(TaskFn fn, std::span<const Access> accesses) {
  if (!fn) throw std::invalid_argument("Runtime::submit: empty task");
  Impl& im = *impl_;
  std::unique_lock<chk::Mutex> maestro;
  if (tls_worker_of != &im) {
    maestro = std::unique_lock<chk::Mutex>(im.maestro, std::try_to_lock);
    // Relaxed: the bound is approximate by design.
    if (!maestro.owns_lock() &&
        im.channel_size.load(std::memory_order_relaxed) >= kSlots) {
      maestro.lock();
    }
  }
  if (!maestro.owns_lock()) {
    std::vector<core::Param> params;
    to_params(accesses, params);
    // Relaxed: a statistic.
    im.submitted.fetch_add(1, std::memory_order_relaxed);
    im.enqueue(std::move(fn), std::move(params));
    return;
  }
  to_params(accesses, im.params);
  im.submitted.fetch_add(1, std::memory_order_relaxed);
  // The channel first: it may hold this thread's own earlier submissions.
  // Then this task, then the releases; the task goes to the workers last,
  // so it cannot be released before the next submit() registers its task.
  im.register_channel();
  Slot slot = 0;
  const bool ready = im.add(std::move(fn), im.params, slot, true);
  // Handle Finished on demand: only a task waiting for a grant needs the
  // posted completions now. Otherwise they wait for a stall step or a
  // wait, which read a worker's log once per full line, not per post.
  if (im.core.waiting() > (ready ? 1u : 0u)) (void)im.core.release_posted();
  if (ready) im.core.make_ready(&slot, 1);
}

void Runtime::submit(TaskFn fn, std::initializer_list<Access> accesses) {
  submit(std::move(fn), std::span<const Access>(accesses.begin(),
                                                accesses.size()));
}

void Runtime::wait_all() {
  Impl& im = *impl_;
  refuse_task_body(&im, "wait_all");
  {
    const std::lock_guard<chk::Mutex> maestro(im.maestro);
    for (;;) {
      im.register_channel();
      if (im.core.in_flight() > 0) {
        im.progress();
      } else if (im.channel_size.load(std::memory_order_relaxed) == 0) {
        // Relaxed: a task body's enqueue happens before its completion,
        // which the Maestro has drained.
        break;
      }
    }
  }
  std::exception_ptr error;
  {
    const std::lock_guard<chk::Mutex> lock(im.error_mu);
    error = std::exchange(im.first_error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void Runtime::wait_on(const void* ptr) {
  Impl& im = *impl_;
  refuse_task_body(&im, "wait_on");
  if (ptr == nullptr) return;  // no task can access it
  const std::lock_guard<chk::Mutex> maestro(im.maestro);
  // Register everything submitted so far, then a sentinel inout(ptr) task
  // queued behind every one of them that touches ptr. No worker runs it:
  // the core releases it on this thread as soon as it is ready.
  im.register_channel();
  const core::Param access = core::inout(reinterpret_cast<core::Addr>(ptr), 1);
  Slot slot = 0;
  const bool ready = im.add(nullptr, {&access, 1}, slot, false);
  im.sentinel = slot;
  if (ready) im.core.release_inline(slot);
  while (im.sentinel != kNoSlot) {
    im.progress();
    im.register_channel();
  }
}

Runtime::Stats Runtime::stats() const {
  const Impl& im = *impl_;
  Stats s;
  // Relaxed: statistics.
  s.submitted = im.submitted.load(std::memory_order_relaxed);
  s.executed = im.executed.load(std::memory_order_relaxed);
  s.dependency_edges = im.edges.load(std::memory_order_relaxed);
  s.raw_hazards = im.raw.load(std::memory_order_relaxed);
  s.war_hazards = im.war.load(std::memory_order_relaxed);
  s.waw_hazards = im.waw.load(std::memory_order_relaxed);
  return s;
}

}  // namespace nexuspp::starss
