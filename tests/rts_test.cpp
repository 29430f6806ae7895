// Tests for the simulated software StarSs RTS baseline: correctness of the
// execution (dependencies honored), master-side serialization costs, and
// the qualitative bottleneck the hardware accelerator removes.

#include <gtest/gtest.h>

#include "rts/software_rts.hpp"
#include "trace/trace.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/grid.hpp"

namespace nexuspp {
namespace {

using rts::SoftwareRtsConfig;
using trace::TaskRecord;

TaskRecord rec(std::uint64_t serial, std::vector<core::Param> params,
               sim::Time exec = sim::us(10)) {
  TaskRecord r;
  r.serial = serial;
  r.params = std::move(params);
  r.exec_time = exec;
  r.read_bytes = 512;
  r.write_bytes = 512;
  return r;
}

TEST(SoftwareRts, CompletesIndependentTasks) {
  SoftwareRtsConfig cfg;
  cfg.num_workers = 4;
  std::vector<TaskRecord> tasks;
  for (int i = 0; i < 40; ++i) {
    tasks.push_back(rec(i, {core::inout(0x1000 + 64 * i, 64)}));
  }
  auto report = rts::run_software_rts(
      cfg, trace::make_vector_stream(std::move(tasks)));
  EXPECT_FALSE(report.deadlocked);
  EXPECT_EQ(report.tasks_completed, 40u);
  EXPECT_GT(report.stage("master")->busy, 0);
}

TEST(SoftwareRts, ChainSerializes) {
  SoftwareRtsConfig cfg;
  cfg.num_workers = 4;
  std::vector<TaskRecord> tasks;
  for (int i = 0; i < 10; ++i) {
    std::vector<core::Param> params;
    if (i > 0) params.push_back(core::in(0x100 + 64 * (i - 1), 64));
    params.push_back(core::out(0x100 + 64 * i, 64));
    tasks.push_back(rec(i, std::move(params)));
  }
  auto report = rts::run_software_rts(
      cfg, trace::make_vector_stream(std::move(tasks)));
  EXPECT_EQ(report.tasks_completed, 10u);
  EXPECT_GE(report.makespan, sim::us(100));  // 10 x 10 us strictly ordered
}

TEST(SoftwareRts, MasterBottleneckCapsScalability) {
  // Fine-grained independent tasks: the master needs ~2.2 us per task
  // (create + resolve + schedule + finish) while a task runs 5 us, so
  // adding workers beyond ~3 must not help. This is the RTS bottleneck of
  // the paper's introduction.
  auto run_with = [](std::uint32_t workers) {
    workloads::GridConfig grid;
    grid.rows = 20;
    grid.cols = 20;
    grid.pattern = workloads::GridPattern::kIndependent;
    grid.timing.mean_exec_ns = 5000.0;
    grid.timing.mean_mem_ns = 500.0;
    SoftwareRtsConfig cfg;
    cfg.num_workers = workers;
    return rts::run_software_rts(
        cfg, std::make_unique<trace::VectorStream>(
                 workloads::make_grid_trace(grid)));
  };
  const auto w1 = run_with(1);
  const auto w4 = run_with(4);
  const auto w16 = run_with(16);
  EXPECT_FALSE(w16.deadlocked);
  const double s4 = w4.speedup_vs(w1);
  const double s16 = w16.speedup_vs(w1);
  EXPECT_GT(s4, 1.5);  // some speedup initially
  // Saturation: 16 workers give almost nothing over 4.
  EXPECT_LT(s16 / s4, 1.6);
  EXPECT_LT(s16, 5.0);
  // The master is the busy resource at 16 workers.
  EXPECT_GT(static_cast<double>(w16.stage("master")->busy) /
                static_cast<double>(w16.makespan),
            0.8);
}

TEST(SoftwareRts, GaussianDependenciesHonored) {
  workloads::GaussianConfig g;
  g.n = 32;
  SoftwareRtsConfig cfg;
  cfg.num_workers = 4;
  auto report =
      rts::run_software_rts(cfg, workloads::make_gaussian_stream(g));
  EXPECT_FALSE(report.deadlocked);
  EXPECT_EQ(report.tasks_completed, workloads::gaussian_task_count(32));
}

TEST(SoftwareRts, ZeroTasksFine) {
  SoftwareRtsConfig cfg;
  auto report = rts::run_software_rts(cfg, trace::make_vector_stream({}));
  EXPECT_FALSE(report.deadlocked);
  EXPECT_EQ(report.tasks_completed, 0u);
}

TEST(SoftwareRts, ConfigValidation) {
  SoftwareRtsConfig cfg;
  cfg.num_workers = 0;
  EXPECT_THROW(
      (void)rts::run_software_rts(cfg, trace::make_vector_stream({})),
      std::invalid_argument);
  EXPECT_THROW((void)rts::run_software_rts(SoftwareRtsConfig{}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace nexuspp
