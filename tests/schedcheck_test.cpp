// Layer-5 correctness tooling tests (docs/CORRECTNESS.md): the schedule
// explorer, the happens-before race checker, and the compiled-in mutant
// that proves the pair would have caught the PR 6 publication race.
//
// Built without NEXUSPP_SCHEDCHECK the suite pins the zero-cost contract
// (the chk:: wrappers ARE the std primitives) and skips everything else.
// Built with it:
//   * RaceChecker unit tests drive hand-built event sequences with
//     explicit thread ids and assert exact verdicts (race kind, dedup,
//     purge-on-reclaim) — the checker is pure logic over those ids.
//   * ScheduleController tests pin determinism (same seed -> same trace),
//     seed sensitivity, and the deadlock / step-limit diagnoses.
//   * Workload sweeps run DelegationQueue MPSC, EpochDomain reclamation,
//     ShardedResolver submit/finish chains and the executor's TaskHandoff
//     over seed sets and demand completion with zero race reports.
//   * The mutant test flips chk::Faults::publish_local_id_late, proves a
//     bounded schedule budget finds the reintroduced race, and replays
//     the found seed to the bit-identical trace and report signature.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <type_traits>

#include "chk/chk.hpp"

#if !defined(NEXUSPP_SCHEDCHECK)

namespace nexuspp {
namespace {

// The OFF contract: aliases, not wrappers — pointer-identical layout and
// codegen with the uninstrumented build, by construction.
static_assert(std::is_same_v<chk::Atomic<int>, std::atomic<int>>);
static_assert(std::is_same_v<chk::Atomic<std::uint64_t>,
                             std::atomic<std::uint64_t>>);
static_assert(std::is_same_v<chk::Mutex, std::mutex>);
static_assert(std::is_same_v<chk::CondVar, std::condition_variable>);
// The fault toggle folds to constant false (dead mutant branches).
static_assert(!chk::Faults::publish_local_id_late());
static_assert(chk::schedule_thread_id() == chk::kNoScheduleThread);

TEST(SchedCheck, RequiresSchedcheckBuild) {
  GTEST_SKIP() << "built without NEXUSPP_SCHEDCHECK; configure with "
                  "-DNEXUSPP_SCHEDCHECK=ON to run schedule exploration";
}

}  // namespace
}  // namespace nexuspp

#else  // NEXUSPP_SCHEDCHECK

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "chk/controller.hpp"
#include "chk/race_checker.hpp"
#include "chk/session.hpp"
#include "core/types.hpp"
#include "exec/epoch.hpp"
#include "exec/handoff.hpp"
#include "exec/sharded_resolver.hpp"
#include "exec/sync_queue.hpp"

namespace nexuspp {
namespace {

using chk::OpKind;
using chk::RaceChecker;
using chk::RaceReport;
using chk::SchedulePolicy;
using chk::ScheduleController;
using chk::ScheduleOutcome;
using chk::TraceEntry;

constexpr const char* kFile = "unit";

// --- RaceChecker: hand-built event sequences ---------------------------------

TEST(RaceChecker, UnsynchronizedWritesRace) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteWrite);
  EXPECT_EQ(checker.reports()[0].prior.line, 1u);
  EXPECT_EQ(checker.reports()[0].current.line, 2u);
}

TEST(RaceChecker, WriteThenUnorderedReadRaces) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, false, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteRead);
}

TEST(RaceChecker, ReadThenUnorderedWriteRaces) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, false, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kReadWrite);
}

TEST(RaceChecker, ConcurrentReadsDoNotRace) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, false, kFile, 1);
  checker.on_plain(1, &a, false, kFile, 2);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, ReleaseAcquireEdgeOrdersAccesses) {
  RaceChecker checker;
  int a = 0;
  int flag = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_release(0, &flag, OpKind::kAtomicStore, kFile, 2);
  checker.on_acquire(1, &flag, OpKind::kAtomicLoad, kFile, 3);
  checker.on_plain(1, &a, true, kFile, 4);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, EdgeOnDifferentAddressDoesNotOrder) {
  RaceChecker checker;
  int a = 0;
  int flag = 0;
  int other = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_release(0, &flag, OpKind::kAtomicStore, kFile, 2);
  checker.on_acquire(1, &other, OpKind::kAtomicLoad, kFile, 3);
  checker.on_plain(1, &a, true, kFile, 4);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kWriteWrite);
}

TEST(RaceChecker, MutexCriticalSectionsOrderAccesses) {
  RaceChecker checker;
  int a = 0;
  int m = 0;
  checker.on_mutex_acquire(0, &m, kFile, 1);
  checker.on_plain(0, &a, true, kFile, 2);
  checker.on_mutex_release(0, &m, kFile, 3);
  checker.on_mutex_acquire(1, &m, kFile, 4);
  checker.on_plain(1, &a, true, kFile, 5);
  checker.on_mutex_release(1, &m, kFile, 6);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, ForkJoinClockTransferOrdersAccesses) {
  RaceChecker checker;
  int a = 0;
  std::uint64_t clock[chk::kMaxThreads] = {};
  checker.on_plain(0, &a, true, kFile, 1);
  checker.capture_clock(0, clock);  // parent captures at fork
  checker.adopt_clock(1, clock);    // child adopts before first access
  checker.on_plain(1, &a, true, kFile, 2);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, DuplicatePairReportedOnce) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, kFile, 1);
  checker.on_plain(1, &a, true, kFile, 2);
  checker.on_plain(1, &a, true, kFile, 2);  // same pair again
  EXPECT_EQ(checker.reports().size(), 1u);
}

TEST(RaceChecker, UseAfterReclaimDetected) {
  RaceChecker checker;
  int block[4] = {};
  checker.on_plain(0, &block[1], false, kFile, 1);
  checker.on_reclaim(1, block, sizeof(block), kFile, 2);
  ASSERT_EQ(checker.reports().size(), 1u);
  EXPECT_EQ(checker.reports()[0].kind, RaceReport::Kind::kUseAfterReclaim);
}

TEST(RaceChecker, OrderedReclaimIsCleanAndPurgesShadow) {
  RaceChecker checker;
  int block[4] = {};
  int flag = 0;
  checker.on_plain(0, &block[1], true, kFile, 1);
  checker.on_release(0, &flag, OpKind::kAtomicStore, kFile, 2);
  checker.on_acquire(1, &flag, OpKind::kAtomicLoad, kFile, 3);
  checker.on_reclaim(1, block, sizeof(block), kFile, 4);
  EXPECT_TRUE(checker.reports().empty());
  // The address range was purged: a recycled allocation at the same
  // address must not alias the pre-reclaim history.
  checker.on_plain(2, &block[1], true, kFile, 5);
  EXPECT_TRUE(checker.reports().empty());
}

TEST(RaceChecker, ReportCarriesLocations) {
  RaceChecker checker;
  int a = 0;
  checker.on_plain(0, &a, true, "writer.cpp", 10);
  checker.on_plain(1, &a, false, "reader.cpp", 20);
  ASSERT_EQ(checker.reports().size(), 1u);
  const std::string text = checker.reports()[0].to_string();
  EXPECT_NE(text.find("writer.cpp:10"), std::string::npos) << text;
  EXPECT_NE(text.find("reader.cpp:20"), std::string::npos) << text;
}

// --- ScheduleController: determinism and diagnoses ---------------------------

[[nodiscard]] bool traces_equal(const std::vector<TraceEntry>& a,
                                const std::vector<TraceEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a[i].same_decision(b[i])) return false;
  }
  return true;
}

/// Runs one schedule of a tiny three-thread workload (atomic counter +
/// mutex-protected plain counter) and returns its trace.
std::vector<TraceEntry> run_counter_workload(const SchedulePolicy& policy) {
  chk::Atomic<std::uint64_t> counter{0};
  chk::Mutex mu;
  std::uint64_t plain = 0;
  auto body = [&] {
    for (int i = 0; i < 3; ++i) {
      counter.fetch_add(1, std::memory_order_acq_rel);
      std::lock_guard<chk::Mutex> lock(mu);
      chk::plain_write(&plain);
      ++plain;
    }
  };
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome =
      controller.run({body, body, body});
  EXPECT_TRUE(outcome.completed()) << outcome.diagnosis;
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 9u);
  EXPECT_EQ(plain, 9u);
  return controller.trace();
}

TEST(ScheduleController, SameSeedReplaysIdenticalTrace) {
  for (const auto kind :
       {SchedulePolicy::Kind::kRandomWalk, SchedulePolicy::Kind::kPct}) {
    SchedulePolicy policy;
    policy.kind = kind;
    policy.seed = 42;
    const auto first = run_counter_workload(policy);
    const auto second = run_counter_workload(policy);
    EXPECT_FALSE(first.empty());
    EXPECT_TRUE(traces_equal(first, second))
        << "replay diverged for kind=" << static_cast<int>(kind);
  }
}

TEST(ScheduleController, DifferentSeedsExploreDifferentInterleavings) {
  std::vector<std::vector<TraceEntry>> traces;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    traces.push_back(run_counter_workload(policy));
  }
  bool any_diverged = false;
  for (std::size_t i = 1; i < traces.size() && !any_diverged; ++i) {
    any_diverged = !traces_equal(traces[0], traces[i]);
  }
  EXPECT_TRUE(any_diverged)
      << "12 seeds produced one interleaving; the walk is not exploring";
}

TEST(ScheduleController, TraceTokensAreDenseAndFirstSeen) {
  SchedulePolicy policy;
  const auto trace = run_counter_workload(policy);
  ASSERT_FALSE(trace.empty());
  std::uint32_t max_token = 0;
  std::set<std::uint32_t> seen;
  for (const auto& entry : trace) {
    seen.insert(entry.addr_token);
    max_token = std::max(max_token, entry.addr_token);
  }
  // Dense: tokens 0..max all appear (first-registration numbering).
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(max_token) + 1);
  EXPECT_EQ(trace[0].addr_token, 0u);
}

TEST(ScheduleController, SelfDeadlockDiagnosed) {
  SchedulePolicy policy;
  chk::Mutex mu;
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome = controller.run({[&] {
    std::lock_guard<chk::Mutex> outer(mu);
    // Relocking the held mutex can never succeed: every live thread ends
    // up blocked with no pending write, which is exactly the deadlock
    // predicate. ScheduleAbort unwinds through lock(); the lock_guard
    // releases the outer hold.
    std::lock_guard<chk::Mutex> inner(mu);
  }});
  EXPECT_EQ(outcome.kind, ScheduleOutcome::Kind::kDeadlock);
  EXPECT_NE(outcome.diagnosis.find("deadlock"), std::string::npos)
      << outcome.diagnosis;
}

TEST(ScheduleController, AbBaDeadlockFoundAcrossSeeds) {
  int deadlocks = 0;
  int completions = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    chk::Mutex a;
    chk::Mutex b;
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, nullptr);
    const auto outcome = controller.run({
        [&] {
          std::lock_guard<chk::Mutex> la(a);
          std::lock_guard<chk::Mutex> lb(b);
        },
        [&] {
          std::lock_guard<chk::Mutex> lb(b);
          std::lock_guard<chk::Mutex> la(a);
        },
    });
    if (outcome.kind == ScheduleOutcome::Kind::kDeadlock) ++deadlocks;
    if (outcome.completed()) ++completions;
  }
  // The classic AB-BA hang depends on the interleaving: the sweep must
  // both find it and find schedules that dodge it.
  EXPECT_GT(deadlocks, 0);
  EXPECT_GT(completions, 0);
}

TEST(ScheduleController, StepLimitDiagnosed) {
  SchedulePolicy policy;
  policy.max_steps = 200;
  chk::Atomic<int> never{0};
  ScheduleController controller(policy);
  chk::SessionScope scope(&controller, nullptr);
  const auto outcome = controller.run({[&] {
    while (never.load(std::memory_order_relaxed) == 0) {
    }
  }});
  EXPECT_EQ(outcome.kind, ScheduleOutcome::Kind::kStepLimit);
}

TEST(ScheduleController, SeedBannerIsReplayable) {
  SchedulePolicy policy;
  policy.seed = 1234;
  policy.kind = SchedulePolicy::Kind::kPct;
  ScheduleController controller(policy);
  const auto banner = controller.seed_banner();
  EXPECT_NE(banner.find("seed=1234"), std::string::npos) << banner;
  EXPECT_NE(banner.find("pct"), std::string::npos) << banner;
}

// --- Workload sweeps: real exec structures, zero reports ---------------------

/// chk-instrumented two-party mailbox: the harness-side ready queue for
/// resolver workloads (vector contents modeled as one plain location,
/// serialized by the instrumented mutex).
struct Mailbox {
  chk::Mutex mu;
  std::vector<std::uint64_t> q;

  void push(std::uint64_t gid) {
    std::lock_guard<chk::Mutex> lock(mu);
    chk::plain_write(&q);
    q.push_back(gid);
  }
  bool try_pop(std::uint64_t& gid) {
    std::lock_guard<chk::Mutex> lock(mu);
    chk::plain_write(&q);
    if (q.empty()) return false;
    gid = q.back();
    q.pop_back();
    return true;
  }
  std::uint64_t pop_blocking() {
    std::uint64_t gid = 0;
    while (!try_pop(gid)) {
      if (!chk::spin_yield()) std::this_thread::yield();
    }
    return gid;
  }
};

/// Standard seed set for the sweeps: random walks plus PCT schedules.
[[nodiscard]] std::vector<SchedulePolicy> sweep_policies(
    std::uint64_t random_walks, std::uint64_t pct_schedules) {
  std::vector<SchedulePolicy> out;
  for (std::uint64_t seed = 1; seed <= random_walks; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    out.push_back(policy);
  }
  for (std::uint64_t seed = 1; seed <= pct_schedules; ++seed) {
    SchedulePolicy policy;
    policy.kind = SchedulePolicy::Kind::kPct;
    policy.seed = seed;
    policy.depth = 3;
    policy.expected_steps = 500;
    out.push_back(policy);
  }
  return out;
}

TEST(SchedExploration, DelegationQueueMpscIsRaceFree) {
  for (const auto& policy : sweep_policies(60, 20)) {
    exec::DelegationQueue queue(4);
    std::uint64_t handled = 0;
    // The handler mutates plain state; exclusivity comes entirely from
    // the combiner protocol, which is exactly the claim under test.
    const auto handler = [&handled](exec::SyncRequest&) {
      chk::plain_write(&handled);
      ++handled;
    };
    const auto producer = [&] {
      for (int i = 0; i < 3; ++i) {
        exec::SyncRequest request;
        queue.execute(request, handler);
      }
    };
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      const auto outcome = controller.run({producer, producer});
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
    }
    EXPECT_EQ(handled, 6u);
    EXPECT_TRUE(checker.reports().empty())
        << "seed " << policy.seed << ": "
        << checker.reports()[0].to_string();
  }
}

TEST(SchedExploration, EpochReclamationIsRaceFree) {
  struct Box {
    std::uint64_t value = 0;
  };
  for (const auto& policy : sweep_policies(60, 20)) {
    exec::EpochDomain domain;
    chk::Atomic<Box*> box{new Box};
    const auto writer = [&] {
      for (int i = 0; i < 2; ++i) {
        Box* fresh = new Box;
        chk::plain_write(&fresh->value);
        fresh->value = static_cast<std::uint64_t>(i) + 1;
        Box* old = box.exchange(fresh, std::memory_order_acq_rel);
        domain.retire(old);
        domain.try_advance();
      }
    };
    const auto reader = [&] {
      for (int i = 0; i < 3; ++i) {
        exec::EpochDomain::Guard guard(domain);
        Box* current = box.load(std::memory_order_acquire);
        chk::plain_read(&current->value);
        (void)current->value;
      }
    };
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      const auto outcome = controller.run({writer, reader});
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << "seed " << policy.seed << ": "
          << checker.reports()[0].to_string();
    }
    delete box.load(std::memory_order_relaxed);
    // Remaining limbo generations are freed by ~EpochDomain after the
    // session closed (main never synchronized with the workload threads,
    // so in-session teardown checks would be false positives).
  }
}

/// Master/worker resolver chain: master registers `tasks` conflicting
/// tasks (all inout on one address) and mails every submission-granted
/// task; the worker drains the mailbox, finishes tasks, and mails each
/// finish-granted dependant. Exercises submit-vs-finish interleavings of
/// one shard's full backend.
struct ResolverChainWorkload {
  explicit ResolverChainWorkload(std::uint64_t tasks) : total(tasks) {
    exec::ShardedResolverConfig cfg;
    cfg.shards = 1;
    cfg.pool_capacity = 64;
    cfg.table_capacity = 256;
    cfg.sync = exec::SyncMode::kLockFree;
    resolver = std::make_unique<exec::ShardedResolver>(cfg, tasks);
  }

  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      for (std::uint64_t gid = 0; gid < total; ++gid) {
        auto session = resolver->begin_submit(
            gid, gid, 0, std::vector<core::Param>{core::inout(0x40)});
        if (session.advance() != exec::ShardedResolver::Progress::kDone) {
          throw std::runtime_error("unexpected submit stall: " +
                                   session.failure());
        }
        if (session.ready()) mailbox.push(gid);
      }
    };
    const auto worker = [this] {
      std::vector<std::uint64_t> granted;
      for (std::uint64_t finished = 0; finished < total; ++finished) {
        const std::uint64_t gid = mailbox.pop_blocking();
        resolver->finish(gid, granted);
        for (const auto next : granted) mailbox.push(next);
      }
    };
    return {master, worker};
  }

  std::uint64_t total;
  std::unique_ptr<exec::ShardedResolver> resolver;
  Mailbox mailbox;
};

TEST(SchedExploration, LockFreeResolverChainIsRaceFree) {
  for (const auto& policy : sweep_policies(40, 15)) {
    ResolverChainWorkload workload(3);
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      const auto outcome = controller.run(workload.threads());
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << "seed " << policy.seed << ": "
          << checker.reports()[0].to_string();
    }
    // The resolver (and its epoch domain) tears down after the session:
    // main never synchronized with the schedule's threads.
  }
}

/// The executor's run queue (exec::TaskHandoff) on its own: one master
/// pushes kTasks ids (the first alone, then in pairs), drains completions
/// and waits when none is posted; two workers claim, "run" and post back.
/// Every wait here can park, and a parked thread wakes only on a notify
/// (chk::CondVar under a controller), so a lost wake-up ends the schedule
/// as a diagnosed deadlock.
struct HandoffWorkload {
  static constexpr std::uint64_t kTasks = 6;

  [[nodiscard]] std::vector<std::function<void()>> threads() {
    const auto master = [this] {
      std::uint64_t pushed = 0;
      std::uint64_t drained = 0;
      const auto on_done = [this, &drained](std::uint64_t id) {
        chk::plain_write(&drains[id]);
        ++drains[id];
        ++drained;
      };
      while (drained < kTasks) {
        if (pushed < kTasks) {
          const std::uint64_t ids[2] = {pushed, pushed + 1};
          const std::uint64_t count =
              pushed == 0 ? 1 : std::min<std::uint64_t>(2, kTasks - pushed);
          handoff.push(ids, count);
          pushed += count;
        }
        if (handoff.drain(on_done) == 0 && pushed == kTasks &&
            drained < kTasks) {
          handoff.wait_for_completion();
        }
      }
      handoff.close();
    };
    const auto worker = [this](std::uint32_t index) {
      return [this, index] {
        std::uint64_t id = 0;
        while (handoff.claim(id)) {
          chk::plain_write(&claims[id]);
          ++claims[id];
          handoff.post(index, id);
        }
      };
    };
    return {master, worker(0), worker(1)};
  }

  exec::TaskHandoff handoff{kTasks, 2};
  std::array<std::uint32_t, kTasks> claims{};
  std::array<std::uint32_t, kTasks> drains{};
};

TEST(SchedExploration, TaskHandoffIsRaceFreeAndLosesNoWakeup) {
  for (const auto& policy : sweep_policies(60, 20)) {
    HandoffWorkload workload;
    RaceChecker checker;
    {
      ScheduleController controller(policy);
      chk::SessionScope scope(&controller, &checker);
      const auto outcome = controller.run(workload.threads());
      ASSERT_TRUE(outcome.completed())
          << controller.seed_banner() << ": " << outcome.diagnosis;
      EXPECT_TRUE(checker.reports().empty())
          << "seed " << policy.seed << ": "
          << checker.reports()[0].to_string();
    }
    for (std::uint64_t id = 0; id < HandoffWorkload::kTasks; ++id) {
      EXPECT_EQ(workload.claims[id], 1u) << "seed " << policy.seed;
      EXPECT_EQ(workload.drains[id], 1u) << "seed " << policy.seed;
    }
  }
}

// --- The mutant: PR 6 publication race, rediscovered and replayed ------------

struct MutantScope {
  MutantScope() { chk::Faults::set_publish_local_id_late(true); }
  ~MutantScope() { chk::Faults::set_publish_local_id_late(false); }
};

/// Signature of a detection, stable across processes for one seed: the
/// schedule trace plus every (kind, prior line, current line) report.
struct Detection {
  std::vector<TraceEntry> trace;
  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> reports;
  ScheduleOutcome::Kind outcome = ScheduleOutcome::Kind::kCompleted;
};

Detection run_mutant_schedule(const SchedulePolicy& policy) {
  ResolverChainWorkload workload(2);
  RaceChecker checker;
  Detection out;
  {
    ScheduleController controller(policy);
    chk::SessionScope scope(&controller, &checker);
    out.outcome = controller.run(workload.threads()).kind;
    out.trace = controller.trace();
  }
  for (const auto& report : checker.reports()) {
    out.reports.emplace(static_cast<int>(report.kind), report.prior.line,
                        report.current.line);
  }
  return out;
}

TEST(SchedExploration, MutantPublicationRaceIsFoundAndReplays) {
  const MutantScope mutant;
  // Bounded budget: the CI gate is "found within kBudget schedules", the
  // same contract a nightly sweep would enforce.
  constexpr int kBudget = 200;
  int attempts = 0;
  SchedulePolicy found_policy;
  Detection found;
  bool detected = false;
  for (const auto& policy : sweep_policies(150, 50)) {
    ++attempts;
    const auto result = run_mutant_schedule(policy);
    if (!result.reports.empty()) {
      found_policy = policy;
      found = result;
      detected = true;
      break;
    }
    if (attempts >= kBudget) break;
  }
  ASSERT_TRUE(detected) << "mutant race not found within " << kBudget
                        << " schedules";
  EXPECT_LE(attempts, kBudget);

  // Replay: the banner seed must reproduce the identical interleaving
  // and the identical racing pair — that is the debugging contract.
  const auto replay = run_mutant_schedule(found_policy);
  EXPECT_TRUE(traces_equal(found.trace, replay.trace))
      << "replay of seed " << found_policy.seed
      << " diverged from the original failing schedule";
  EXPECT_EQ(found.reports, replay.reports);
  EXPECT_EQ(found.outcome, replay.outcome);

  // The racing pair is the real one: both sides live in the resolver.
  ASSERT_FALSE(found.reports.empty());
}

TEST(SchedExploration, MutantDisabledSameSeedsAreClean) {
  // The schedules that exposed the mutant must be clean on real code —
  // the detector reacts to the fault, not to the workload.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SchedulePolicy policy;
    policy.seed = seed;
    const auto result = run_mutant_schedule(policy);
    EXPECT_TRUE(result.reports.empty()) << "seed " << seed;
    EXPECT_EQ(result.outcome, ScheduleOutcome::Kind::kCompleted);
  }
}

}  // namespace
}  // namespace nexuspp

#endif  // NEXUSPP_SCHEDCHECK
