// System- and engine-level tests for the banked Nexus++.
//
// The headline correctness obligations from the bank/ subsystem design:
//   1. `nexus-banked` with banks=1 is *bit-identical* to `nexus++` — same
//      makespan, same hazard census, same lookup costs, same event count —
//      in both address-matching modes, across structured and randomized
//      workloads. Both engines run the one nexus::NexusSystem, so this now
//      checks the registry wiring; tests/nexus_pinned_report_test.cpp pins
//      the numbers themselves. nexus++ and classic-nexus ignore the bank
//      count altogether.
//   2. Every bank count in {1, 2, 4, 8, 16} completes randomized workloads
//      (>= 8 seeds) with the full task count — the timed system preserves
//      the oracle-verified completion semantics of bank::BankedResolver
//      (tests/bank_resolution_test.cpp proves the untimed equivalence; this
//      layer proves the arbiter timing never wedges the pipeline).
//   3. Banking actually relieves the resolution bottleneck: conflict wait
//      falls as banks grow, and the telemetry columns are populated.

#include <gtest/gtest.h>

#include <string>

#include "engine/sweep.hpp"
#include "nexus/system.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/grid.hpp"
#include "workloads/overlap.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

engine::RunReport run_engine(const std::string& name,
                             const engine::StreamFactory& factory,
                             engine::EngineParams params) {
  const auto eng = engine::EngineRegistry::builtins().make(name, params);
  return eng->run(factory());
}

void expect_bit_identical(const engine::RunReport& mono,
                          const engine::RunReport& banked) {
  EXPECT_FALSE(mono.deadlocked) << mono.diagnosis;
  EXPECT_FALSE(banked.deadlocked) << banked.diagnosis;
  EXPECT_EQ(mono.makespan, banked.makespan);
  EXPECT_EQ(mono.sim_events, banked.sim_events);
  EXPECT_EQ(mono.tasks_completed, banked.tasks_completed);
  EXPECT_EQ(mono.raw_hazards, banked.raw_hazards);
  EXPECT_EQ(mono.war_hazards, banked.war_hazards);
  EXPECT_EQ(mono.waw_hazards, banked.waw_hazards);
  EXPECT_EQ(mono.dt_lookups, banked.dt_lookups);
  EXPECT_EQ(mono.dt_lookup_probes, banked.dt_lookup_probes);
  EXPECT_EQ(mono.dt_max_live, banked.dt_max_live);
  EXPECT_EQ(mono.total_exec_time, banked.total_exec_time);
  EXPECT_EQ(mono.ready_queue_peak, banked.ready_queue_peak);
  EXPECT_DOUBLE_EQ(mono.turnaround_ns.mean(), banked.turnaround_ns.mean());
  const auto* mono_cd = mono.stage("check-deps");
  const auto* bank_cd = banked.stage("check-deps");
  ASSERT_NE(mono_cd, nullptr);
  ASSERT_NE(bank_cd, nullptr);
  EXPECT_EQ(mono_cd->busy, bank_cd->busy);
  EXPECT_EQ(mono_cd->stall, bank_cd->stall);
  const auto* mono_hf = mono.stage("handle-finished");
  const auto* bank_hf = banked.stage("handle-finished");
  ASSERT_NE(mono_hf, nullptr);
  ASSERT_NE(bank_hf, nullptr);
  EXPECT_EQ(mono_hf->busy, bank_hf->busy);
}

class SingleBankBitIdentity
    : public ::testing::TestWithParam<core::MatchMode> {};

TEST_P(SingleBankBitIdentity, GaussianEliminationMatchesMonolithic) {
  workloads::GaussianConfig g;
  g.n = 24;
  const engine::StreamFactory factory = [g] {
    return workloads::make_gaussian_stream(g);
  };
  engine::EngineParams params;
  params.num_workers = 8;
  params.match_mode = GetParam();
  engine::EngineParams banked = params;
  banked.banks = 1;
  expect_bit_identical(run_engine("nexus++", factory, params),
                       run_engine("nexus-banked", factory, banked));
}

TEST_P(SingleBankBitIdentity, HaloStencilMatchesMonolithic) {
  workloads::HaloStencilConfig halo;
  halo.blocks = 32;
  halo.steps = 6;
  const auto tasks = make_halo_stencil_trace(halo);
  const engine::StreamFactory factory = [tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  };
  engine::EngineParams params;
  params.num_workers = 8;
  params.match_mode = GetParam();
  engine::EngineParams banked = params;
  banked.banks = 1;
  expect_bit_identical(run_engine("nexus++", factory, params),
                       run_engine("nexus-banked", factory, banked));
}

TEST_P(SingleBankBitIdentity, RandomDagsMatchMonolithic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    workloads::RandomDagConfig cfg;
    cfg.num_tasks = 250;
    cfg.addr_space = 24;
    cfg.seed = seed;
    const auto tasks = make_random_dag_trace(cfg);
    const engine::StreamFactory factory = [tasks] {
      return std::make_unique<trace::VectorStream>(tasks);
    };
    engine::EngineParams params;
    params.num_workers = 4;
    params.match_mode = GetParam();
    engine::EngineParams banked = params;
    banked.banks = 1;
    expect_bit_identical(run_engine("nexus++", factory, params),
                         run_engine("nexus-banked", factory, banked));
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, SingleBankBitIdentity,
                         ::testing::Values(core::MatchMode::kBaseAddr,
                                           core::MatchMode::kRange),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param)) ==
                                          "base-addr"
                                      ? "base"
                                      : "range";
                         });

// --- The monolithic engines ignore the bank count ------------------------------

TEST(MonolithicEngines, IgnoreTheBankCount) {
  workloads::HaloStencilConfig halo;
  halo.blocks = 32;
  halo.steps = 6;
  const auto tasks = make_halo_stencil_trace(halo);
  const engine::StreamFactory factory = [tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  };
  for (const char* name : {"nexus++", "classic-nexus"}) {
    for (const auto mode :
         {core::MatchMode::kBaseAddr, core::MatchMode::kRange}) {
      SCOPED_TRACE(std::string(name) + " " + core::to_string(mode));
      engine::EngineParams params;
      params.num_workers = 8;
      params.match_mode = mode;
      engine::EngineParams four_banks = params;
      four_banks.banks = 4;
      const auto unset = run_engine(name, factory, params);
      const auto four = run_engine(name, factory, four_banks);
      EXPECT_TRUE(unset == four);
      EXPECT_EQ(four.banks, 0u);
      EXPECT_TRUE(four.per_bank_max_live.empty());
      EXPECT_EQ(four.bank_conflict_wait, 0);
    }
  }
}

// --- Completion semantics across all bank counts ------------------------------

class BankCountCompletion : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BankCountCompletion, RandomizedStreamsCompleteOverEightSeeds) {
  const std::uint32_t banks = GetParam();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const auto mode :
         {core::MatchMode::kBaseAddr, core::MatchMode::kRange}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " mode " +
                   core::to_string(mode));
      workloads::RandomDagConfig cfg;
      cfg.num_tasks = 200;
      cfg.addr_space = 16;
      cfg.seed = seed;
      const auto tasks = make_random_dag_trace(cfg);
      engine::EngineParams params;
      params.num_workers = 8;
      params.match_mode = mode;
      params.banks = banks;
      const auto r = run_engine(
          "nexus-banked",
          [tasks] { return std::make_unique<trace::VectorStream>(tasks); },
          params);
      EXPECT_FALSE(r.deadlocked) << r.diagnosis;
      EXPECT_EQ(r.tasks_completed, r.tasks_expected);
      EXPECT_EQ(r.banks, banks);
      EXPECT_EQ(r.per_bank_max_live.size(), banks);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBankCounts, BankCountCompletion,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u),
                         [](const auto& info) {
                           return "banks" + std::to_string(info.param);
                         });

// --- Banking relieves the resolution bottleneck -------------------------------

TEST(BankScaling, ConflictWaitFallsAsBanksGrow) {
  workloads::HaloStencilConfig halo;
  halo.blocks = 48;
  halo.steps = 8;
  const auto tasks = make_halo_stencil_trace(halo);
  const engine::StreamFactory factory = [tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  };

  engine::EngineParams params;
  params.num_workers = 16;
  params.match_mode = core::MatchMode::kRange;

  engine::EngineParams one = params;
  one.banks = 1;
  engine::EngineParams sixteen = params;
  sixteen.banks = 16;
  const auto r1 = run_engine("nexus-banked", factory, one);
  const auto r16 = run_engine("nexus-banked", factory, sixteen);
  ASSERT_FALSE(r1.deadlocked) << r1.diagnosis;
  ASSERT_FALSE(r16.deadlocked) << r16.diagnosis;

  EXPECT_GT(r1.bank_conflict_wait, 0);
  EXPECT_LT(r16.bank_conflict_wait, r1.bank_conflict_wait);
  // Parallel resolution can only shorten Maestro rounds, never stretch them.
  EXPECT_LE(r16.stage("check-deps")->busy, r1.stage("check-deps")->busy);
  EXPECT_LE(r16.stage("handle-finished")->busy,
            r1.stage("handle-finished")->busy);
  // Telemetry is populated and sane.
  EXPECT_GT(r16.bank_busy_imbalance, 0.0);
  EXPECT_GT(r16.bank_occupancy_imbalance, 0.0);
  EXPECT_GE(r16.bank_peak_live, 1u);
}

TEST(BankScaling, DirectSystemReportCarriesPerBankTelemetry) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 150;
  nexus::NexusConfig ncfg;
  ncfg.num_workers = 4;
  ncfg.banks = 4;
  ncfg.dep_table.match_mode = core::MatchMode::kRange;
  const auto report =
      nexus::run_system(ncfg, workloads::make_random_dag_stream(cfg));
  EXPECT_EQ(report.banks, 4u);
  EXPECT_EQ(report.per_bank_busy.size(), 4u);
  EXPECT_EQ(report.per_bank_conflict.size(), 4u);
  EXPECT_EQ(report.per_bank_ops.size(), 4u);
  EXPECT_EQ(report.per_bank_max_live.size(), 4u);
  std::uint64_t ops = 0;
  for (const auto n : report.per_bank_ops) ops += n;
  EXPECT_GT(ops, 0u);
}

TEST(BankScaling, SweepGridCarriesBankColumns) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 80;
  const auto tasks = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  });
  std::vector<engine::EngineParams> axis;
  for (const std::uint32_t b : {1u, 4u}) {
    engine::EngineParams p;
    p.num_workers = 4;
    p.banks = b;
    axis.push_back(p);
  }
  spec.grid({"nexus-banked"}, {"dag"}, axis);
  const auto results =
      engine::run_sweep(spec, engine::SweepOptions{.threads = 2});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].spec.resolved_label(), "w=4 banks=1");
  EXPECT_EQ(results[1].spec.resolved_label(), "w=4 banks=4");

  std::ostringstream csv;
  engine::SweepDriver::write_csv(results, csv);
  EXPECT_NE(csv.str().find("bank_conflict_ns"), std::string::npos);
  EXPECT_NE(csv.str().find("bank_busy_imbalance"), std::string::npos);
  EXPECT_NE(csv.str().find("bank_max_live_per_bank"), std::string::npos);
}

}  // namespace
}  // namespace nexuspp
