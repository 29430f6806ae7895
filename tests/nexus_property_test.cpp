// System-level property tests: the full Nexus++ model must complete every
// randomized task graph (no lost tasks, no spurious deadlocks), produce
// bit-identical results across repeated runs, and keep its conservation
// invariants (every descriptor freed, every address retired; a run that
// leaves either behind reports itself deadlocked) — including under
// deliberately tiny tables that force constant stall/recover cycles.

#include <gtest/gtest.h>

#include "nexus/system.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

using nexus::NexusConfig;
using workloads::RandomDagConfig;

void check_invariants(const engine::RunReport& r,
                      std::uint64_t expected_tasks) {
  // Conservation included: NexusSystem::run reports a run that completed
  // every task but left a descriptor or an entry behind as deadlocked.
  EXPECT_FALSE(r.deadlocked) << r.diagnosis;
  EXPECT_EQ(r.tasks_completed, expected_tasks);
  EXPECT_EQ(r.tasks_submitted, expected_tasks);
  EXPECT_EQ(r.turnaround_ns.count(), expected_tasks);
  if (expected_tasks > 0) {
    EXPECT_GT(r.turnaround_ns.mean(), 0.0);
  }
}

class RandomDagSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagSeeds, CompletesAndConserves) {
  RandomDagConfig dag;
  dag.seed = GetParam();
  dag.num_tasks = 600;
  dag.addr_space = 24;  // dense hazards
  dag.max_params = 5;
  NexusConfig cfg;
  cfg.num_workers = 8;
  const auto report = nexus::run_system(
      cfg,
      std::make_unique<trace::VectorStream>(
          workloads::make_random_dag_trace(dag)),
      false);
  check_invariants(report, 600);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSeeds,
                         ::testing::Range<std::uint64_t>(1, 13));

class RandomDagTinyTables : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomDagTinyTables, StallRecoverUnderPressure) {
  RandomDagConfig dag;
  dag.seed = GetParam();
  dag.num_tasks = 400;
  dag.addr_space = 40;
  dag.max_params = 3;
  NexusConfig cfg;
  cfg.num_workers = 4;
  cfg.task_pool.capacity = 8;       // brutal: 8 descriptors
  cfg.dep_table.capacity = 16;      // and 16 dependence entries
  cfg.dep_table.kick_off_capacity = 2;
  cfg.tds_buffer_capacity = 4;
  const auto report = nexus::run_system(
      cfg,
      std::make_unique<trace::VectorStream>(
          workloads::make_random_dag_trace(dag)),
      false);
  check_invariants(report, 400);
  // The pressure must actually have materialized.
  EXPECT_GT(report.stage("write-tp")->stall + report.stage("check-deps")->stall,
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagTinyTables,
                         ::testing::Range<std::uint64_t>(100, 108));

class BufferDepthSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BufferDepthSweep, AnyDepthCompletes) {
  RandomDagConfig dag;
  dag.seed = 7;
  dag.num_tasks = 300;
  NexusConfig cfg;
  cfg.num_workers = 3;
  cfg.buffering_depth = GetParam();
  const auto report = nexus::run_system(
      cfg,
      std::make_unique<trace::VectorStream>(
          workloads::make_random_dag_trace(dag)),
      false);
  check_invariants(report, 300);
}

INSTANTIATE_TEST_SUITE_P(Depths, BufferDepthSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u));

TEST(RandomDagDeterminism, IdenticalRunsBitIdentical) {
  auto once = [] {
    RandomDagConfig dag;
    dag.seed = 99;
    dag.num_tasks = 500;
    NexusConfig cfg;
    cfg.num_workers = 6;
    return nexus::run_system(cfg, std::make_unique<trace::VectorStream>(
                                      workloads::make_random_dag_trace(dag)));
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.dt_ko_dummies, b.dt_ko_dummies);
  EXPECT_EQ(a.raw_hazards, b.raw_hazards);
  EXPECT_DOUBLE_EQ(a.turnaround_ns.mean(), b.turnaround_ns.mean());
}

TEST(RandomDagConfigValidation, Rejections) {
  RandomDagConfig dag;
  dag.num_tasks = 0;
  EXPECT_THROW(dag.validate(), std::invalid_argument);
  dag = RandomDagConfig{};
  dag.max_params = dag.addr_space + 1;
  EXPECT_THROW(dag.validate(), std::invalid_argument);
  dag = RandomDagConfig{};
  dag.write_prob = 1.5;
  EXPECT_THROW(dag.validate(), std::invalid_argument);
}

TEST(RandomDagWorkload, DescriptorsWellFormedAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomDagConfig dag;
    dag.seed = seed;
    dag.num_tasks = 200;
    const auto tasks = make_random_dag_trace(dag);
    for (const auto& t : *tasks) {
      core::TaskDescriptor td;
      td.params = t.params;
      ASSERT_EQ(td.validate(), "") << "seed " << seed << " task " << t.serial;
      ASSERT_GE(t.params.size(), 1u);
      ASSERT_LE(t.params.size(), dag.max_params);
    }
  }
}

}  // namespace
}  // namespace nexuspp
