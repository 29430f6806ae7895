// Integration tests for the full Nexus++ system model: end-to-end execution
// of small task graphs, dependency ordering, double-buffering overlap,
// table-full stall/recovery, classic-Nexus structural failures, determinism
// and report sanity.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "nexus/system.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/grid.hpp"
#include "workloads/wide.hpp"

namespace nexuspp {
namespace {

using nexus::NexusConfig;
using nexus::NexusSystem;
using trace::TaskRecord;

/// Builds a record with given params and timing.
TaskRecord rec(std::uint64_t serial, std::vector<core::Param> params,
               sim::Time exec = sim::us(1), std::uint64_t rd = 256,
               std::uint64_t wr = 256) {
  TaskRecord r;
  r.serial = serial;
  r.fn = 0xF00;
  r.params = std::move(params);
  r.exec_time = exec;
  r.read_bytes = rd;
  r.write_bytes = wr;
  return r;
}

engine::RunReport run_tasks(NexusConfig cfg, std::vector<TaskRecord> tasks,
                            bool require_success = true) {
  return nexus::run_system(cfg, trace::make_vector_stream(std::move(tasks)),
                           require_success);
}

TEST(NexusSystem, SingleTaskCompletes) {
  NexusConfig cfg;
  cfg.num_workers = 1;
  auto report = run_tasks(cfg, {rec(0, {core::inout(0x100, 64)})});
  EXPECT_EQ(report.tasks_completed, 1u);
  EXPECT_FALSE(report.deadlocked);
  EXPECT_GT(report.makespan, sim::us(1));  // at least the execution time
}

TEST(NexusSystem, EmptyStreamFinishesAtTimeZero) {
  NexusConfig cfg;
  auto report = run_tasks(cfg, {});
  EXPECT_EQ(report.tasks_completed, 0u);
  EXPECT_FALSE(report.deadlocked);
}

TEST(NexusSystem, ChainRunsSequentially) {
  // 8 tasks in a strict RAW chain: makespan >= 8 x exec regardless of
  // worker count.
  NexusConfig cfg;
  cfg.num_workers = 8;
  std::vector<TaskRecord> tasks;
  for (int i = 0; i < 8; ++i) {
    std::vector<core::Param> params;
    if (i > 0) params.push_back(core::in(0x1000 + 64 * (i - 1), 64));
    params.push_back(core::out(0x1000 + 64 * i, 64));
    tasks.push_back(rec(i, std::move(params)));
  }
  auto report = run_tasks(cfg, std::move(tasks));
  EXPECT_EQ(report.tasks_completed, 8u);
  EXPECT_GE(report.makespan, sim::us(8));
}

TEST(NexusSystem, IndependentTasksRunInParallel) {
  NexusConfig cfg;
  cfg.num_workers = 8;
  std::vector<TaskRecord> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(rec(i, {core::inout(0x9000 + 64 * i, 64)}));
  }
  auto report = run_tasks(cfg, std::move(tasks));
  EXPECT_EQ(report.tasks_completed, 8u);
  // 8 x 1 us of work on 8 workers: far below the 8 us serial bound.
  EXPECT_LT(report.makespan, sim::us(4));
}

// Records the completion order via a side-channel: each task writes its
// completion into a scoreboard keyed by serial. We infer ordering from the
// dependency-correctness property checked by construction in core; here we
// assert system-level makespan bounds instead (the resolver tests already
// cover exact ordering).
TEST(NexusSystem, DiamondRespectsDependencies) {
  NexusConfig cfg;
  cfg.num_workers = 4;
  std::vector<TaskRecord> tasks;
  tasks.push_back(rec(0, {core::out(0x10, 4), core::out(0x20, 4)}));
  tasks.push_back(rec(1, {core::in(0x10, 4), core::out(0x30, 4)}));
  tasks.push_back(rec(2, {core::in(0x20, 4), core::out(0x40, 4)}));
  tasks.push_back(rec(3, {core::in(0x30, 4), core::in(0x40, 4)}));
  auto report = run_tasks(cfg, std::move(tasks));
  EXPECT_EQ(report.tasks_completed, 4u);
  // Three dependency levels of 1 us each.
  EXPECT_GE(report.makespan, sim::us(3));
  EXPECT_LT(report.makespan, sim::us(5));
}

TEST(NexusSystem, BufferingOverlapsMemoryWithExecution) {
  // Tasks with heavy memory time: with depth 1 the worker serializes
  // fetch/run/writeback per task; with depth 2 fetches overlap execution.
  auto make_tasks = [] {
    std::vector<TaskRecord> tasks;
    for (int i = 0; i < 64; ++i) {
      tasks.push_back(rec(i, {core::inout(0x5000 + 64 * i, 64)},
                          sim::us(10), 64 * 1024, 64 * 1024));
    }
    return tasks;
  };
  NexusConfig cfg;
  cfg.num_workers = 1;
  cfg.buffering_depth = 1;
  auto single = run_tasks(cfg, make_tasks());
  cfg.buffering_depth = 2;
  auto dbl = run_tasks(cfg, make_tasks());
  EXPECT_EQ(single.tasks_completed, 64u);
  EXPECT_EQ(dbl.tasks_completed, 64u);
  // 64 KiB = 512 chunks = 6.144 us each way; depth-2 hides most of it.
  EXPECT_LT(dbl.makespan, single.makespan);
  const double gain = static_cast<double>(single.makespan) /
                      static_cast<double>(dbl.makespan);
  EXPECT_GT(gain, 1.5);
}

TEST(NexusSystem, DeeperBufferingNeverHurts) {
  auto make_tasks = [] {
    std::vector<TaskRecord> tasks;
    for (int i = 0; i < 48; ++i) {
      tasks.push_back(rec(i, {core::inout(0x5000 + 64 * i, 64)},
                          sim::us(5), 32 * 1024, 32 * 1024));
    }
    return tasks;
  };
  NexusConfig cfg;
  cfg.num_workers = 2;
  cfg.buffering_depth = 2;
  auto d2 = run_tasks(cfg, make_tasks());
  cfg.buffering_depth = 4;
  auto d4 = run_tasks(cfg, make_tasks());
  EXPECT_LE(d4.makespan, d2.makespan);
}

TEST(NexusSystem, TinyTaskPoolStallsAndRecovers) {
  NexusConfig cfg;
  cfg.num_workers = 2;
  cfg.task_pool.capacity = 4;  // far smaller than the task count
  cfg.tds_buffer_capacity = 4;
  std::vector<TaskRecord> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(rec(i, {core::inout(0x9000 + 64 * i, 64)}, sim::ns(500),
                        128, 128));
  }
  auto report = run_tasks(cfg, std::move(tasks));
  EXPECT_EQ(report.tasks_completed, 100u);
  EXPECT_GT(report.stage("write-tp")->stall, 0);  // pool filled up
  EXPECT_LE(report.tp_max_used, 4u);
}

TEST(NexusSystem, TinyDependenceTableStallsAndRecovers) {
  NexusConfig cfg;
  cfg.num_workers = 2;
  cfg.dep_table.capacity = 4;
  std::vector<TaskRecord> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back(rec(i, {core::in(0x9000 + 64 * i, 64),
                            core::out(0x90000 + 64 * i, 64)},
                        sim::ns(500), 128, 128));
  }
  auto report = run_tasks(cfg, std::move(tasks));
  EXPECT_EQ(report.tasks_completed, 100u);
  EXPECT_GT(report.stage("check-deps")->stall, 0);
  EXPECT_LE(report.dt_max_live, 4u);
}

TEST(NexusSystem, WideTasksNeedDummyTasks) {
  NexusConfig cfg;
  cfg.num_workers = 2;
  workloads::WideConfig wide;
  wide.lanes = 2;
  wide.chain_length = 8;
  wide.width = 10;  // up to 20 params >> 8 per descriptor
  auto report = nexus::run_system(
      cfg, std::make_unique<trace::VectorStream>(
               workloads::make_wide_trace(wide)));
  EXPECT_EQ(report.tasks_completed, wide.total_tasks());
  EXPECT_GT(report.tp_dummy_slots, 0u);
}

TEST(NexusSystem, ClassicNexusRejectsWideTasks) {
  NexusConfig cfg = NexusConfig::classic_nexus();
  cfg.num_workers = 2;
  workloads::WideConfig wide;
  wide.lanes = 1;
  wide.chain_length = 2;
  wide.width = 10;
  auto report = nexus::run_system(
      cfg,
      std::make_unique<trace::VectorStream>(workloads::make_wide_trace(wide)),
      /*require_success=*/false);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.diagnosis.find("dummy tasks"), std::string::npos);
}

TEST(NexusSystem, ClassicNexusKickoffOverflowIsStructural) {
  // 30 readers behind one writer on the same address: kick-off list of 8
  // cannot hold them without dummy entries.
  NexusConfig cfg = NexusConfig::classic_nexus();
  cfg.num_workers = 2;
  std::vector<TaskRecord> tasks;
  tasks.push_back(rec(0, {core::out(0x42, 4)}, sim::us(50)));
  for (int i = 1; i <= 30; ++i) {
    tasks.push_back(rec(i, {core::in(0x42, 4)}));
  }
  auto report = run_tasks(cfg, std::move(tasks), /*require_success=*/false);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.diagnosis.find("kick-off"), std::string::npos);
}

TEST(NexusSystem, NexusPlusPlusHandlesSameOverflow) {
  NexusConfig cfg;  // dummy entries enabled
  cfg.num_workers = 2;
  std::vector<TaskRecord> tasks;
  tasks.push_back(rec(0, {core::out(0x42, 4)}, sim::us(50)));
  for (int i = 1; i <= 30; ++i) {
    tasks.push_back(rec(i, {core::in(0x42, 4)}));
  }
  auto report = run_tasks(cfg, std::move(tasks));
  EXPECT_EQ(report.tasks_completed, 31u);
  EXPECT_GT(report.dt_ko_dummies, 0u);
}

TEST(NexusSystem, ImpossiblyWideTaskDiagnosed) {
  NexusConfig cfg;
  cfg.task_pool.capacity = 4;  // a 40-param task needs 6 slots
  std::vector<TaskRecord> tasks;
  std::vector<core::Param> params;
  for (int i = 0; i < 40; ++i) params.push_back(core::out(0x100 + 8 * i, 8));
  tasks.push_back(rec(0, std::move(params)));
  auto report = run_tasks(cfg, std::move(tasks), /*require_success=*/false);
  EXPECT_TRUE(report.deadlocked);
  EXPECT_NE(report.diagnosis.find("descriptor slots"), std::string::npos);
}

TEST(NexusSystem, RunIsSingleUse) {
  NexusConfig cfg;
  NexusSystem system(cfg, trace::make_vector_stream({}));
  (void)system.run();
  EXPECT_THROW((void)system.run(), std::logic_error);
}

TEST(NexusSystem, NullStreamRejected) {
  NexusConfig cfg;
  EXPECT_THROW(NexusSystem(cfg, nullptr), std::invalid_argument);
}

TEST(NexusSystem, ConfigValidation) {
  NexusConfig cfg;
  cfg.num_workers = 0;
  EXPECT_THROW(NexusSystem(cfg, trace::make_vector_stream({})),
               std::invalid_argument);
  cfg = NexusConfig{};
  cfg.buffering_depth = 0;
  EXPECT_THROW(NexusSystem(cfg, trace::make_vector_stream({})),
               std::invalid_argument);
}

TEST(NexusSystem, DeterministicMakespan) {
  auto once = [] {
    workloads::GridConfig grid;
    grid.rows = 12;
    grid.cols = 10;
    NexusConfig cfg;
    cfg.num_workers = 4;
    return nexus::run_system(
        cfg, std::make_unique<trace::VectorStream>(
                 workloads::make_grid_trace(grid)));
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.sim_events, b.sim_events);
}

TEST(NexusSystem, ReportAccountingIsConsistent) {
  workloads::GridConfig grid;
  grid.rows = 10;
  grid.cols = 10;
  grid.pattern = workloads::GridPattern::kIndependent;
  NexusConfig cfg;
  cfg.num_workers = 4;
  const auto trace = workloads::make_grid_trace(grid);
  auto report =
      nexus::run_system(cfg, std::make_unique<trace::VectorStream>(trace));
  // Tables fully drained after the run, or it would read as deadlocked.
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
  EXPECT_EQ(report.tasks_completed, 100u);
  EXPECT_EQ(report.tasks_submitted, 100u);
  EXPECT_GT(report.total_exec_time, 0);
  EXPECT_GT(report.avg_core_utilization, 0.0);
  EXPECT_LE(report.avg_core_utilization, 1.0);
  // The master's busy time is each task's preparation plus one bus
  // transfer of its 1 + P descriptor words, and nothing else.
  const hw::BusConfig& bus = cfg.master_bus;
  sim::Time master_busy = 0;
  for (const TaskRecord& task : *trace) {
    const std::uint64_t words = 1 + task.params.size();
    master_busy += cfg.task_prep_time +
                   static_cast<sim::Time>(bus.handshake_cycles +
                                          words * bus.cycles_per_word) *
                       bus.cycle;
  }
  EXPECT_EQ(report.stage("master")->busy, master_busy);
  EXPECT_EQ(report.mem_stats.transfers, 200u);  // one read + one write each
  EXPECT_GT(report.stage("check-deps")->busy, 0);
  EXPECT_GT(report.stage("handle-finished")->busy, 0);
}

TEST(NexusSystem, MoreWorkersNeverSlower) {
  auto run_with = [](std::uint32_t workers) {
    workloads::GridConfig grid;
    grid.rows = 16;
    grid.cols = 16;
    grid.pattern = workloads::GridPattern::kIndependent;
    NexusConfig cfg;
    cfg.num_workers = workers;
    return nexus::run_system(
        cfg, std::make_unique<trace::VectorStream>(
                 workloads::make_grid_trace(grid)));
  };
  const auto w1 = run_with(1);
  const auto w4 = run_with(4);
  const auto w16 = run_with(16);
  EXPECT_GT(w1.makespan, w4.makespan);
  EXPECT_GT(w4.makespan, w16.makespan);
  // Speedup sanity: 4 workers give > 2x, 16 give > 6x on 256 independent
  // equal tasks.
  EXPECT_GT(w4.speedup_vs(w1), 2.0);
  EXPECT_GT(w16.speedup_vs(w1), 6.0);
}

TEST(NexusSystem, GaussianSmallMatrixCompletes) {
  workloads::GaussianConfig g;
  g.n = 24;
  NexusConfig cfg;
  cfg.num_workers = 4;
  auto report = nexus::run_system(cfg, workloads::make_gaussian_stream(g));
  EXPECT_EQ(report.tasks_completed, workloads::gaussian_task_count(24));
  EXPECT_GT(report.raw_hazards, 0u);
}

TEST(NexusSystem, GaussianOverflowsKickoffListsWhenExecutionLags) {
  // On one worker a 200x200 elimination is execution-bound: the master
  // runs ahead, the Task Pool window spans several columns, and the
  // readers of a not-yet-executed pivot row pile up far beyond the 8-entry
  // kick-off list — the exact scenario dummy entries exist for
  // (paper Section III-C). Consecutive inout updates of the same row also
  // produce WAW queueing.
  workloads::GaussianConfig g;
  g.n = 200;
  NexusConfig cfg;
  cfg.num_workers = 1;
  auto report = nexus::run_system(cfg, workloads::make_gaussian_stream(g));
  EXPECT_EQ(report.tasks_completed, workloads::gaussian_task_count(200));
  EXPECT_GT(report.dt_ko_dummies, 0u);
  EXPECT_GT(report.waw_hazards, 0u);
  EXPECT_GT(report.raw_hazards, 0u);
  // All dummy entries were drained and recycled, or the run would read as
  // deadlocked.
  EXPECT_FALSE(report.deadlocked) << report.diagnosis;
}

TEST(NexusSystem, DisablingTaskPrepSpeedsUpSubmission) {
  auto run_with = [](bool prep) {
    workloads::GridConfig grid;
    grid.rows = 20;
    grid.cols = 20;
    grid.pattern = workloads::GridPattern::kIndependent;
    // Tiny tasks so the master is the bottleneck.
    grid.timing.mean_exec_ns = 100.0;
    grid.timing.mean_mem_ns = 50.0;
    NexusConfig cfg;
    cfg.num_workers = 64;
    cfg.enable_task_prep = prep;
    return nexus::run_system(
        cfg, std::make_unique<trace::VectorStream>(
                 workloads::make_grid_trace(grid)));
  };
  const auto with_prep = run_with(true);
  const auto without = run_with(false);
  EXPECT_LT(without.makespan, with_prep.makespan);
}

TEST(NexusSystem, MemoryContentionSlowsHeavyTraffic) {
  auto run_with = [](hw::ContentionModel model) {
    workloads::GridConfig grid;
    grid.rows = 16;
    grid.cols = 16;
    grid.pattern = workloads::GridPattern::kIndependent;
    grid.timing.mean_exec_ns = 1000.0;
    grid.timing.mean_mem_ns = 9000.0;  // memory-dominated tasks
    NexusConfig cfg;
    cfg.num_workers = 64;  // demand for ~48 ports >> 32 available
    cfg.memory.contention = model;
    return nexus::run_system(
        cfg, std::make_unique<trace::VectorStream>(
                 workloads::make_grid_trace(grid)));
  };
  const auto contended = run_with(hw::ContentionModel::kPorts);
  const auto free = run_with(hw::ContentionModel::kNone);
  EXPECT_GT(contended.makespan, free.makespan);
  EXPECT_GT(contended.mem_stats.contention_wait, 0);
}

}  // namespace
}  // namespace nexuspp
