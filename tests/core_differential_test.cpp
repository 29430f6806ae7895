// Differential property tests at two levels.
//
// Level 1 (structures): the bounded hardware structures (TaskPool +
// DependenceTable + Resolver, with dummy tasks, bounded kick-off lists and
// hash collisions) must admit exactly the same ready-task behaviour as the
// unbounded GraphOracle on randomized task streams. This is the paper's
// correctness claim for the dummy-task/dummy-entry mechanisms.
//
// The harness interleaves submissions and completions, driving both systems
// in lockstep and comparing the set of runnable tasks after every step. A
// final drain checks that every submitted task eventually ran and that both
// systems end empty.
//
// Level 2 (engines): the same seeded workload streams run through every
// registered Engine must agree on task counts, finish without deadlock
// where feasible, and respect the ordering invariant the whole paper rests
// on — under default costs the hardware task manager is never slower than
// the software RTS.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "core/dependence_table.hpp"
#include "core/oracle.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "engine/sweep.hpp"
#include "util/rng.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/grid.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

using core::AccessMode;
using core::DependenceTable;
using core::GraphOracle;
using core::Param;
using core::Resolver;
using core::TaskDescriptor;
using core::TaskId;
using core::TaskPool;

struct StreamConfig {
  std::uint64_t seed = 1;
  int num_tasks = 300;
  int addr_space = 12;     ///< distinct addresses (small => many conflicts)
  int max_params = 6;      ///< per task
  double write_prob = 0.4;
  double finish_prob = 0.5;  ///< chance to finish a running task per step
};

/// Runs the random stream against both systems, checking equivalence.
class DifferentialHarness {
 public:
  explicit DifferentialHarness(const StreamConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        tp_({4096, 4}),   // small descriptors force dummy tasks
        dt_({4096, 3}),   // small kick-off lists force dummy entries
        resolver_(tp_, dt_) {}

  void run() {
    int submitted = 0;
    while (submitted < cfg_.num_tasks || !running_.empty() ||
           !oracle_ready_.empty()) {
      const bool can_submit = submitted < cfg_.num_tasks;
      const bool do_finish =
          !runnable_pairs_empty() &&
          (!can_submit || rng_.chance(cfg_.finish_prob));
      if (do_finish) {
        finish_one();
      } else if (can_submit) {
        submit_one(submitted++);
      } else {
        ASSERT_FALSE(true) << "stuck: nothing runnable and nothing to submit";
        return;
      }
    }
    // Both systems must be fully drained.
    EXPECT_EQ(oracle_.pending_count(), 0u);
    EXPECT_EQ(oracle_.tracked_addr_count(), 0u);
    EXPECT_TRUE(dt_.empty());
    EXPECT_TRUE(tp_.empty());
    EXPECT_EQ(finished_order_.size(), static_cast<std::size_t>(cfg_.num_tasks));
  }

 private:
  using Key = GraphOracle::Key;

  bool runnable_pairs_empty() const { return hw_ready_.empty(); }

  TaskDescriptor random_descriptor(Key key) {
    TaskDescriptor td;
    td.fn = key;
    td.serial = key;
    const int n = 1 + static_cast<int>(rng_.below(
                          static_cast<std::uint64_t>(cfg_.max_params)));
    std::set<core::Addr> used;
    for (int p = 0; p < n; ++p) {
      core::Addr a;
      do {
        a = 0x1000 + 64 * rng_.below(
                         static_cast<std::uint64_t>(cfg_.addr_space));
      } while (used.count(a));
      used.insert(a);
      AccessMode mode = AccessMode::kIn;
      if (rng_.chance(cfg_.write_prob)) {
        mode = rng_.chance(0.5) ? AccessMode::kOut : AccessMode::kInOut;
      }
      td.params.push_back(Param{a, 64, mode});
    }
    return td;
  }

  void submit_one(int serial) {
    const Key key = static_cast<Key>(serial);
    const TaskDescriptor td = random_descriptor(key);

    const bool oracle_ready = oracle_.submit(key, td.params);
    if (oracle_ready) oracle_ready_.insert(key);

    auto ins = tp_.insert(td);
    ASSERT_TRUE(ins.has_value()) << "task pool exhausted (test sizing bug)";
    auto sub = resolver_.submit(ins->id);
    ASSERT_FALSE(sub.stalled) << "dependence table exhausted (sizing bug)";
    key_to_id_[key] = ins->id;
    id_to_key_[ins->id] = key;
    if (sub.ready) hw_ready_.insert(key);

    EXPECT_EQ(sub.ready, oracle_ready)
        << "readiness mismatch for task " << key;
    check_ready_sets();
    running_.insert(key);
  }

  void finish_one() {
    // Pick deterministically among runnable tasks.
    ASSERT_FALSE(hw_ready_.empty());
    auto it = hw_ready_.begin();
    std::advance(it, static_cast<long>(rng_.below(hw_ready_.size())));
    const Key key = *it;

    const TaskId id = key_to_id_.at(key);
    auto hw_newly = resolver_.finish(id);
    tp_.free_task(id);
    auto oracle_newly = oracle_.finish(key);

    // Grant order must match exactly.
    std::vector<Key> hw_keys;
    hw_keys.reserve(hw_newly.now_ready.size());
    for (TaskId t : hw_newly.now_ready) hw_keys.push_back(id_to_key_.at(t));
    EXPECT_EQ(hw_keys, oracle_newly)
        << "kick-off grant order diverged after finishing " << key;

    hw_ready_.erase(key);
    oracle_ready_.erase(key);
    running_.erase(key);
    key_to_id_.erase(key);
    id_to_key_.erase(id);
    for (Key k : oracle_newly) oracle_ready_.insert(k);
    for (Key k : hw_keys) hw_ready_.insert(k);
    finished_order_.push_back(key);
    check_ready_sets();
  }

  void check_ready_sets() {
    ASSERT_EQ(hw_ready_, oracle_ready_) << "ready sets diverged";
  }

  StreamConfig cfg_;
  util::Rng rng_;
  TaskPool tp_;
  DependenceTable dt_;
  Resolver resolver_;
  GraphOracle oracle_;

  std::map<Key, TaskId> key_to_id_;
  std::map<TaskId, Key> id_to_key_;
  std::set<Key> hw_ready_;
  std::set<Key> oracle_ready_;
  std::set<Key> running_;  ///< submitted and not yet finished
  std::vector<Key> finished_order_;
};

class DifferentialSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSeeds, RandomStreamMatchesOracle) {
  StreamConfig cfg;
  cfg.seed = GetParam();
  DifferentialHarness h(cfg);
  h.run();
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, DifferentialSeeds,
                         ::testing::Range<std::uint64_t>(1, 21));

class DifferentialContention : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialContention, TinyAddressSpaceMaximizesHazards) {
  StreamConfig cfg;
  cfg.seed = 99;
  cfg.addr_space = GetParam();  // 1..4 addresses: extreme contention
  cfg.num_tasks = 200;
  cfg.max_params = std::min(cfg.addr_space, 3);
  cfg.write_prob = 0.6;
  DifferentialHarness h(cfg);
  h.run();
}

INSTANTIATE_TEST_SUITE_P(AddrSpaces, DifferentialContention,
                         ::testing::Values(1, 2, 3, 4));

class DifferentialWriteRatio : public ::testing::TestWithParam<double> {};

TEST_P(DifferentialWriteRatio, WriteProbabilitySweep) {
  StreamConfig cfg;
  cfg.seed = 1234;
  cfg.write_prob = GetParam();
  cfg.num_tasks = 250;
  DifferentialHarness h(cfg);
  h.run();
}

INSTANTIATE_TEST_SUITE_P(Ratios, DifferentialWriteRatio,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));

TEST(DifferentialBig, LongStreamWideTasks) {
  StreamConfig cfg;
  cfg.seed = 4242;
  cfg.num_tasks = 1500;
  cfg.addr_space = 24;
  cfg.max_params = 10;  // > descriptor capacity of 4 -> dummy tasks
  DifferentialHarness h(cfg);
  h.run();
}

// --- Level 2: engine-level differential ---------------------------------------

engine::RunReport run_engine(const std::string& name,
                             const engine::StreamFactory& factory,
                             std::uint32_t workers = 8) {
  engine::EngineParams params;
  params.num_workers = workers;
  const auto eng = engine::EngineRegistry::builtins().make(name, params);
  return eng->run(factory());
}

/// Every registered engine can execute the wavefront grid (a pattern even
/// classic Nexus supports: <= 3 params per task, <= 2 dependants per
/// address) and they all agree on the task counts.
TEST(EngineDifferential, AllEnginesAgreeOnWavefront) {
  workloads::GridConfig grid;
  grid.rows = 30;
  grid.cols = 20;
  const auto tasks = make_grid_trace(grid);
  const engine::StreamFactory factory = [&tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  };

  std::vector<engine::RunReport> reports;
  for (const auto& name : engine::EngineRegistry::builtins().names()) {
    SCOPED_TRACE(name);
    engine::RunReport r = run_engine(name, factory);
    EXPECT_FALSE(r.deadlocked) << r.diagnosis;
    EXPECT_EQ(r.tasks_expected, 600u);
    EXPECT_EQ(r.tasks_completed, r.tasks_expected);
    EXPECT_EQ(r.tasks_submitted, r.tasks_expected);
    EXPECT_GT(r.makespan, 0);
    EXPECT_EQ(r.engine, name);
    reports.push_back(std::move(r));
  }
  for (const auto& r : reports) {
    EXPECT_EQ(r.tasks_completed, reports.front().tasks_completed);
  }
}

/// Seeded random DAGs and Gaussian elimination through both full-featured
/// engines: identical task counts, no deadlock, and the paper's ordering
/// invariant — hardware task management is never slower than the software
/// RTS under default costs.
class EngineDifferentialSeeds
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDifferentialSeeds, RandomDagNexusBeatsSoftwareRts) {
  workloads::RandomDagConfig cfg;
  cfg.seed = GetParam();
  cfg.num_tasks = 400;
  cfg.addr_space = 32;
  const auto tasks = make_random_dag_trace(cfg);
  const engine::StreamFactory factory = [&tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  };

  const auto hw = run_engine("nexus++", factory);
  const auto sw = run_engine("software-rts", factory);
  ASSERT_FALSE(hw.deadlocked) << hw.diagnosis;
  ASSERT_FALSE(sw.deadlocked) << sw.diagnosis;
  EXPECT_EQ(hw.tasks_completed, cfg.num_tasks);
  EXPECT_EQ(sw.tasks_completed, hw.tasks_completed);
  EXPECT_LE(hw.makespan, sw.makespan)
      << "hardware task management slower than the software RTS";
  // Turnaround percentiles are populated and ordered on both engines.
  for (const auto* r : {&hw, &sw}) {
    ASSERT_EQ(r->turnaround_ns.count(), cfg.num_tasks);
    EXPECT_LE(r->turnaround_ns.p50(), r->turnaround_ns.p95());
    EXPECT_LE(r->turnaround_ns.p95(), r->turnaround_ns.p99());
    EXPECT_LE(r->turnaround_ns.p99(), r->turnaround_ns.max());
  }
}

TEST_P(EngineDifferentialSeeds, RandomDagClassicNexusIsSafe) {
  // Classic Nexus has structural limits (5 params, bounded kick-off
  // lists); on arbitrary DAGs it must either complete with full counts or
  // report a structural diagnosis — never crash or silently drop tasks.
  workloads::RandomDagConfig cfg;
  cfg.seed = GetParam();
  cfg.num_tasks = 400;
  cfg.addr_space = 32;
  const auto tasks = make_random_dag_trace(cfg);
  const auto r = run_engine("classic-nexus", [&tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  });
  if (r.deadlocked) {
    EXPECT_FALSE(r.diagnosis.empty());
  } else {
    EXPECT_EQ(r.tasks_completed, cfg.num_tasks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialSeeds,
                         ::testing::Values(1, 7, 42, 4242));

TEST(EngineDifferential, GaussianNexusBeatsSoftwareRts) {
  workloads::GaussianConfig g;
  g.n = 80;
  const engine::StreamFactory factory = [g] {
    return workloads::make_gaussian_stream(g);
  };
  const auto hw = run_engine("nexus++", factory);
  const auto sw = run_engine("software-rts", factory);
  ASSERT_FALSE(hw.deadlocked) << hw.diagnosis;
  ASSERT_FALSE(sw.deadlocked) << sw.diagnosis;
  EXPECT_EQ(hw.tasks_expected, workloads::gaussian_task_count(g.n));
  EXPECT_EQ(hw.tasks_completed, hw.tasks_expected);
  EXPECT_EQ(sw.tasks_completed, hw.tasks_completed);
  EXPECT_LE(hw.makespan, sw.makespan);
}

/// Engines are reusable: the same Engine run twice over identical streams
/// produces identical reports (fresh simulation per run()).
TEST(EngineDifferential, EngineRunsAreIndependentAndDeterministic) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 200;
  const auto tasks = make_random_dag_trace(cfg);
  engine::EngineParams params;
  params.num_workers = 4;
  for (const auto& name : engine::EngineRegistry::builtins().names()) {
    SCOPED_TRACE(name);
    const auto eng = engine::EngineRegistry::builtins().make(name, params);
    const auto first =
        eng->run(std::make_unique<trace::VectorStream>(tasks));
    const auto second =
        eng->run(std::make_unique<trace::VectorStream>(tasks));
    EXPECT_EQ(first.tasks_completed, second.tasks_completed);
    if (eng->deterministic_report()) {
      EXPECT_EQ(first.makespan, second.makespan);
      EXPECT_EQ(first.sim_events, second.sim_events);
    } else {
      // Real execution: reusable, but the report is a measurement.
      EXPECT_GT(first.makespan, 0);
      EXPECT_GT(second.makespan, 0);
    }
  }
}

}  // namespace
}  // namespace nexuspp
