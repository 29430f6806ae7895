#include "runtime/runtime.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "chk/chk.hpp"
#include "core/index_fifo.hpp"
#include "exec/handoff.hpp"
#include "exec/master_resolver.hpp"

namespace nexuspp::starss {

namespace {

using Slot = exec::TaskHandoff::TaskId;

/// The resolver configuration every Runtime uses: MasterResolverConfig's
/// defaults, the paper's Table IV sizes.
constexpr exec::MasterResolverConfig kConfig{};
/// Tasks registered and unreleased at most: one per Task Pool descriptor,
/// so the pool only stalls a registration when tasks spill into dummies.
constexpr std::uint32_t kSlots = kConfig.pool_capacity;
constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();

/// The Runtime whose worker the calling thread is, if any.
thread_local const void* tls_worker_of = nullptr;

/// A wait from a task body could never return: its own task is in flight.
void refuse_task_body(const void* runtime, const char* call) {
  if (tls_worker_of == runtime) {
    throw std::logic_error(std::string("Runtime::") + call +
                           " called from a task body");
  }
}

/// A task's accesses as Task Pool parameters. Accesses to one base address
/// become one parameter with the combined mode and the largest size: the
/// resolver would otherwise queue the task behind its own first access.
std::vector<core::Param> to_params(const std::vector<Access>& accesses) {
  std::vector<core::Param> params;
  params.reserve(accesses.size());
  for (const Access& a : accesses) {
    if (a.ptr == nullptr || a.bytes == 0) {
      throw std::invalid_argument("Runtime::submit: bad access");
    }
    params.push_back(core::Param{
        reinterpret_cast<core::Addr>(a.ptr),
        static_cast<std::uint32_t>(std::min<std::size_t>(
            a.bytes, std::numeric_limits<std::uint32_t>::max())),
        a.mode});
  }
  std::sort(params.begin(), params.end(),
            [](const core::Param& a, const core::Param& b) {
              return a.addr < b.addr;
            });
  std::size_t kept = 0;
  for (const core::Param& p : params) {
    if (kept > 0 && params[kept - 1].addr == p.addr) {
      core::Param& merged = params[kept - 1];
      const bool reads = core::reads(merged.mode) || core::reads(p.mode);
      const bool writes = core::writes(merged.mode) || core::writes(p.mode);
      merged.mode = !writes ? core::AccessMode::kIn
                    : reads ? core::AccessMode::kInOut
                            : core::AccessMode::kOut;
      merged.size = std::max(merged.size, p.size);
    } else {
      params[kept++] = p;
    }
  }
  params.resize(kept);
  // More distinct addresses than table entries could never register.
  if (params.size() > kConfig.table_capacity) {
    throw std::invalid_argument(
        "Runtime::submit: more accesses than the dependence table holds (" +
        std::to_string(kConfig.table_capacity) + ")");
  }
  return params;
}

}  // namespace

struct Runtime::Impl {
  /// A task waiting in the channel for the Maestro to register it.
  struct Submission {
    TaskFn fn;
    std::vector<core::Param> params;
  };

  explicit Impl(unsigned threads)
      : resolver(kConfig, kSlots),
        handoff(kSlots, threads),
        bodies(kSlots),
        links(threads) {
    // One release grants each live task at most once.
    grants.reserve(kSlots);
    ready.reserve(kSlots);
    to_release.reserve(kSlots);
    workers.reserve(threads);
    try {
      for (std::uint32_t w = 0; w < threads; ++w) {
        workers.emplace_back([this, w] {
          links[w].child_begin();
          worker_loop(w);
          links[w].child_end();
        });
      }
    } catch (...) {
      shutdown();
      throw;
    }
  }

  /// Stops and joins the workers; tasks still ready are dropped.
  void shutdown() {
    handoff.close();
    for (std::size_t w = 0; w < workers.size(); ++w) {
      workers[w].join();
      links[w].parent_join();
    }
    workers.clear();
  }

  // --- Workers ---------------------------------------------------------------

  void worker_loop(std::uint32_t w) {
    tls_worker_of = this;
    Slot slot = 0;
    while (handoff.claim(slot)) {
      run(slot);
      handoff.post(w, slot);
    }
  }

  void run(Slot slot) {
    // The Maestro wrote the body before making the slot ready, and reuses
    // the slot only after draining this worker's post.
    TaskFn& body = bodies[slot];
    chk::plain_write(&body);
    // Relaxed: statistics; the peak is a max over the running count.
    const unsigned now = running.fetch_add(1, std::memory_order_relaxed) + 1;
    unsigned peak_seen = peak.load(std::memory_order_relaxed);
    while (peak_seen < now &&
           !peak.compare_exchange_weak(peak_seen, now,
                                       std::memory_order_relaxed)) {
    }
    try {
      body();
    } catch (...) {
      const std::lock_guard<chk::Mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    running.fetch_sub(1, std::memory_order_relaxed);
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

  /// Registers one task in a free slot. Returns the slot when the task is
  /// ready at once, for the caller to make ready, else kNoSlot. A sentinel
  /// (wait_on's) has no body and is released here as soon as it is ready.
  [[nodiscard]] Slot add(TaskFn fn, std::vector<core::Param> params,
                         bool is_sentinel) {
    const Slot slot = take_slot();
    if (is_sentinel) {
      sentinel = slot;
    } else {
      chk::plain_write(&bodies[slot]);
      bodies[slot] = std::move(fn);
    }
    const core::Resolver::Stats before = resolver.resolver_stats();
    auto session = resolver.begin_submit(slot, serial++, 0, std::move(params));
    for (;;) {
      const auto progress = session.advance();
      if (progress == exec::MasterResolver::Progress::kDone) break;
      if (progress == exec::MasterResolver::Progress::kStructural) {
        // Reported before anything was registered: the slot is unused.
        bodies[slot] = nullptr;
        if (is_sentinel) sentinel = kNoSlot;
        free_slots.push(static_cast<std::uint32_t>(slot));
        throw std::invalid_argument("Runtime::submit: " + session.failure());
      }
      // Stalled on pool or table space; only a release frees some.
      if (!release_posted()) await_completion();
    }
    ++in_flight;
    publish_hazards(before, is_sentinel);
    if (!session.ready()) return kNoSlot;
    if (!is_sentinel) return slot;
    release(slot);
    flush_ready();
    return kNoSlot;
  }

  Slot take_slot() {
    while (free_slots.empty()) {
      if (!release_posted()) await_completion();
    }
    return free_slots.pop();
  }

  /// Republishes the hazard counts for stats(), leaving out a sentinel's.
  void publish_hazards(const core::Resolver::Stats& before, bool is_sentinel) {
    const core::Resolver::Stats& now = resolver.resolver_stats();
    core::Resolver::Stats& left_out = sentinel_hazards;
    if (is_sentinel) {
      left_out.queued += now.queued - before.queued;
      left_out.raw_hazards += now.raw_hazards - before.raw_hazards;
      left_out.war_hazards += now.war_hazards - before.war_hazards;
      left_out.waw_hazards += now.waw_hazards - before.waw_hazards;
    }
    // Relaxed: statistics, read by stats() on any thread.
    edges.store(now.queued - left_out.queued, std::memory_order_relaxed);
    raw.store(now.raw_hazards - left_out.raw_hazards,
              std::memory_order_relaxed);
    war.store(now.war_hazards - left_out.war_hazards,
              std::memory_order_relaxed);
    waw.store(now.waw_hazards - left_out.waw_hazards,
              std::memory_order_relaxed);
  }

  void make_ready(const Slot* slots, std::size_t count) {
    handoff.push(slots, count);
    pushed += count;
  }

  /// Handle Finished for `first`: releases its accesses, frees its slot and
  /// queues the dependants for flush_ready(). A granted sentinel is
  /// released at once.
  void release(Slot first) {
    to_release.push_back(first);
    while (!to_release.empty()) {
      const Slot slot = to_release.back();
      to_release.pop_back();
      resolver.finish(slot, grants);
      free_slots.push(static_cast<std::uint32_t>(slot));
      --in_flight;
      if (slot == sentinel) {
        sentinel = kNoSlot;
      } else {
        ++executed;
      }
      for (const Slot granted : grants) {
        (granted == sentinel ? to_release : ready).push_back(granted);
      }
    }
    // Relaxed: a statistic.
    executed_count.store(executed, std::memory_order_relaxed);
  }

  /// Makes the queued dependants ready, in grant order.
  void flush_ready() {
    make_ready(ready.data(), ready.size());
    ready.clear();
  }

  /// Releases every completion the workers have posted; false if none was.
  /// The dependants go out after the whole drain, so none of them can be
  /// run and released within it.
  bool release_posted() {
    const std::size_t drained =
        handoff.drain([this](Slot slot) { release(slot); });
    returned += drained;
    flush_ready();
    return drained != 0;
  }

  /// Waits for a worker to post a completion. Only a release makes a task
  /// ready, and only the Maestro releases: once every task it made ready
  /// is back, nothing can ever be posted.
  void await_completion() {
    if (pushed == returned) {
      throw std::logic_error(
          "starss::Runtime: internal deadlock: " + std::to_string(in_flight) +
          " task(s) in flight but none ready or running");
    }
    handoff.wait_for_completion();
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
      const Slot ready_now = add(std::move(s.fn), std::move(s.params), false);
      if (ready_now != kNoSlot) make_ready(&ready_now, 1);
    }
    incoming.clear();
  }

  /// One Maestro round for a waiting caller.
  void service() {
    register_channel();
    (void)release_posted();
  }

  // Maestro-owned: touched only under `maestro`.
  exec::MasterResolver resolver;
  core::IndexFifo free_slots{kSlots};
  std::uint64_t serial = 0;
  std::uint64_t in_flight = 0;  ///< registered, not yet released
  std::uint64_t pushed = 0;     ///< made ready to the workers
  std::uint64_t returned = 0;   ///< completions drained back
  std::uint64_t executed = 0;   ///< released user tasks
  Slot sentinel = kNoSlot;      ///< wait_on's task while it is registered
  core::Resolver::Stats sentinel_hazards;  ///< left out of stats()
  std::vector<Slot> grants;
  std::vector<Slot> ready;  ///< granted, waiting for flush_ready()
  std::vector<Slot> to_release;
  std::vector<Submission> incoming;  ///< the channel batch being registered

  exec::TaskHandoff handoff;
  /// Slot -> its callable: written by the Maestro before the slot is made
  /// ready, run and cleared by the worker that claims it.
  std::vector<TaskFn> bodies;
  chk::Mutex maestro;  ///< held by the thread acting as the Maestro

  // The submission channel: any thread -> the Maestro.
  chk::Mutex channel_mu;
  std::vector<Submission> channel;  ///< guarded by channel_mu
  chk::Atomic<std::size_t> channel_size{0};

  // Statistics, readable from any thread.
  chk::Atomic<std::uint64_t> submitted{0};
  chk::Atomic<std::uint64_t> executed_count{0};
  chk::Atomic<std::uint64_t> edges{0};
  chk::Atomic<std::uint64_t> raw{0};
  chk::Atomic<std::uint64_t> war{0};
  chk::Atomic<std::uint64_t> waw{0};
  chk::Atomic<unsigned> running{0};
  chk::Atomic<unsigned> peak{0};

  chk::Mutex error_mu;
  std::exception_ptr first_error;  ///< guarded by error_mu

  std::vector<std::thread> workers;
  /// Fork/join happens-before edges for the race checker (inert when
  /// schedcheck is off).
  std::vector<chk::ThreadLink> links;
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
  impl_->shutdown();
}

unsigned Runtime::thread_count() const noexcept {
  return static_cast<unsigned>(impl_->workers.size());
}

void Runtime::submit(TaskFn fn, std::vector<Access> accesses) {
  if (!fn) throw std::invalid_argument("Runtime::submit: empty task");
  std::vector<core::Param> params = to_params(accesses);
  Impl& im = *impl_;
  // Relaxed: a statistic.
  im.submitted.fetch_add(1, std::memory_order_relaxed);
  if (tls_worker_of == &im) {
    im.enqueue(std::move(fn), std::move(params));
    return;
  }
  std::unique_lock<chk::Mutex> maestro(im.maestro, std::try_to_lock);
  if (!maestro.owns_lock()) {
    // Relaxed: the bound is approximate by design.
    if (im.channel_size.load(std::memory_order_relaxed) < kSlots) {
      im.enqueue(std::move(fn), std::move(params));
      return;
    }
    maestro.lock();
  }
  // The channel first: it may hold this thread's own earlier submissions.
  // Then this task, then the releases; the task goes to the workers last,
  // so it cannot be released before the next submit() registers its task.
  im.register_channel();
  const Slot ready_now = im.add(std::move(fn), std::move(params), false);
  (void)im.release_posted();
  if (ready_now != kNoSlot) im.make_ready(&ready_now, 1);
}

void Runtime::wait_all() {
  Impl& im = *impl_;
  refuse_task_body(&im, "wait_all");
  {
    const std::lock_guard<chk::Mutex> maestro(im.maestro);
    for (;;) {
      im.service();
      if (im.in_flight > 0) {
        im.await_completion();
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
  // queued behind every one of them that touches ptr.
  im.service();
  (void)im.add(nullptr, {core::inout(reinterpret_cast<core::Addr>(ptr), 1)},
               true);
  while (im.sentinel != kNoSlot) {
    im.await_completion();
    im.service();
  }
}

Runtime::Stats Runtime::stats() const {
  const Impl& im = *impl_;
  Stats s;
  // Relaxed: statistics.
  s.submitted = im.submitted.load(std::memory_order_relaxed);
  s.executed = im.executed_count.load(std::memory_order_relaxed);
  s.dependency_edges = im.edges.load(std::memory_order_relaxed);
  s.raw_hazards = im.raw.load(std::memory_order_relaxed);
  s.war_hazards = im.war.load(std::memory_order_relaxed);
  s.waw_hazards = im.waw.load(std::memory_order_relaxed);
  s.max_concurrency = im.peak.load(std::memory_order_relaxed);
  return s;
}

}  // namespace nexuspp::starss
