// Tests for the unified engine layer: registry construction, the unified
// RunReport schema (stage lookup, turnaround percentiles), RunningStats
// percentile support, and the multi-threaded SweepDriver (grid expansion,
// determinism under parallelism, speedup-vs-baseline columns, CSV/JSON
// emission, exception containment).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "engine/sweep.hpp"
#include "nexus/system.hpp"
#include "sim/arbiter.hpp"
#include "sim/event.hpp"
#include "sim/fifo.hpp"
#include "util/stats.hpp"
#include "workloads/library.hpp"
#include "workloads/pattern.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

// The self-referencing simulation primitives are pinned: copying or moving
// one would dangle its suspended waiters.
static_assert(!std::is_copy_constructible_v<sim::Fifo<int>>);
static_assert(!std::is_move_constructible_v<sim::Fifo<int>>);
static_assert(!std::is_copy_assignable_v<sim::Fifo<int>>);
static_assert(!std::is_move_assignable_v<sim::Fifo<int>>);
static_assert(!std::is_copy_constructible_v<sim::Event>);
static_assert(!std::is_move_constructible_v<sim::Event>);
static_assert(!std::is_copy_constructible_v<sim::RoundRobinArbiter>);
static_assert(!std::is_move_constructible_v<sim::RoundRobinArbiter>);

// --- RunningStats percentiles -------------------------------------------------

TEST(RunningStatsPercentiles, ExactForSmallSamples) {
  util::RunningStats s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.p50(), 50.5, 1e-9);
  EXPECT_NEAR(s.p95(), 95.05, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
}

TEST(RunningStatsPercentiles, EmptyAndSingle) {
  util::RunningStats s;
  EXPECT_EQ(s.percentile(0.5), 0.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.p50(), 7.0);
  EXPECT_DOUBLE_EQ(s.p99(), 7.0);
}

TEST(RunningStatsPercentiles, OrderedBeyondReservoirCapacity) {
  util::RunningStats s;
  const std::size_t n = 3 * util::RunningStats::kReservoirCapacity;
  for (std::size_t i = 0; i < n; ++i) {
    s.add(static_cast<double>(i % 1000));
  }
  EXPECT_EQ(s.count(), n);
  EXPECT_LE(s.min(), s.p50());
  EXPECT_LE(s.p50(), s.p95());
  EXPECT_LE(s.p95(), s.p99());
  EXPECT_LE(s.p99(), s.max());
  // Uniform 0..999: the estimates should land in the right neighborhood.
  EXPECT_NEAR(s.p50(), 500.0, 60.0);
  EXPECT_NEAR(s.p95(), 950.0, 30.0);
}

TEST(RunningStatsPercentiles, DeterministicAcrossInstances) {
  util::RunningStats a;
  util::RunningStats b;
  for (int i = 0; i < 20000; ++i) {
    const double x = (i * 2654435761u) % 10007;
    a.add(x);
    b.add(x);
  }
  EXPECT_DOUBLE_EQ(a.p50(), b.p50());
  EXPECT_DOUBLE_EQ(a.p99(), b.p99());
}

TEST(RunningStatsPercentiles, MergeKeepsOrderedPercentiles) {
  util::RunningStats a;
  util::RunningStats b;
  for (int i = 0; i < 5000; ++i) a.add(i);
  for (int i = 5000; i < 10000; ++i) b.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), 10000u);
  EXPECT_LE(a.p50(), a.p95());
  EXPECT_LE(a.p95(), a.p99());
  EXPECT_NEAR(a.p50(), 5000.0, 500.0);
}

TEST(RunningStatsPercentiles, MergeWeightsBySampleCount) {
  // A tiny accumulator of huge values must not dominate the percentiles
  // of a large one: 100 samples at 1000 are 0.1% of 100,100 samples.
  util::RunningStats big;
  util::RunningStats tiny;
  for (int i = 0; i < 100000; ++i) big.add(1.0);
  for (int i = 0; i < 100; ++i) tiny.add(1000.0);
  big.merge(tiny);
  EXPECT_EQ(big.count(), 100100u);
  EXPECT_DOUBLE_EQ(big.p50(), 1.0);
  EXPECT_DOUBLE_EQ(big.p99(), 1.0);
  EXPECT_DOUBLE_EQ(big.max(), 1000.0);
}

// --- Registry -----------------------------------------------------------------

TEST(EngineRegistry, BuiltinsAndUnknownName) {
  const auto& reg = engine::EngineRegistry::builtins();
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_TRUE(reg.contains("nexus++"));
  EXPECT_TRUE(reg.contains("classic-nexus"));
  EXPECT_TRUE(reg.contains("nexus-banked"));
  EXPECT_TRUE(reg.contains("software-rts"));
  EXPECT_TRUE(reg.contains("exec-threads"));
  EXPECT_THROW((void)reg.make("no-such-engine", {}), std::out_of_range);

  engine::EngineParams params;
  params.num_workers = 3;
  for (const auto& name : names) {
    const auto eng = reg.make(name, params);
    EXPECT_EQ(eng->name(), name);
  }
}

TEST(EngineRegistry, ParamsReachTheUnderlyingConfig) {
  engine::EngineParams params;
  params.num_workers = 9;
  params.buffering_depth = 3;
  params.task_pool_capacity = 64;
  params.dep_table_capacity = 128;
  params.contention = hw::ContentionModel::kNone;
  params.allow_dummies = false;
  params.banks = 4;

  const auto cfg = engine::NexusEngine::apply(nexus::NexusConfig{}, params);
  EXPECT_EQ(cfg.num_workers, 9u);
  EXPECT_EQ(cfg.buffering_depth, 3u);
  EXPECT_EQ(cfg.task_pool.capacity, 64u);
  EXPECT_EQ(cfg.dep_table.capacity, 128u);
  EXPECT_EQ(cfg.banks, 4u);
  EXPECT_EQ(cfg.memory.contention, hw::ContentionModel::kNone);
  EXPECT_FALSE(cfg.task_pool.allow_dummy_tasks);
  EXPECT_FALSE(cfg.dep_table.allow_dummy_entries);

  const auto sw =
      engine::SoftwareRtsEngine::apply(rts::SoftwareRtsConfig{}, params);
  EXPECT_EQ(sw.num_workers, 9u);
  EXPECT_EQ(sw.memory.contention, hw::ContentionModel::kNone);
}

// --- NexusSystem single-use footgun -------------------------------------------

TEST(NexusSystemLifecycle, SecondRunThrows) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 20;
  nexus::NexusSystem system(nexus::NexusConfig{},
                            std::make_unique<trace::VectorStream>(
                                workloads::make_random_dag_trace(cfg)));
  (void)system.run();
  EXPECT_THROW((void)system.run(), std::logic_error);
}

// --- SweepDriver --------------------------------------------------------------

std::vector<engine::EngineParams> worker_axis(
    const std::vector<std::uint32_t>& cores) {
  std::vector<engine::EngineParams> axis;
  for (const auto n : cores) {
    engine::EngineParams p;
    p.num_workers = n;
    axis.push_back(p);
  }
  return axis;
}

engine::SweepSpec small_spec(std::uint32_t tasks = 150) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = tasks;
  const auto trace = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [trace] {
    return std::make_unique<trace::VectorStream>(trace);
  });
  spec.grid({"nexus++", "software-rts"}, {"dag"}, worker_axis({1, 2, 4}));
  return spec;
}

TEST(SweepDriver, GridExpansionAndBaselines) {
  const auto spec = small_spec();
  ASSERT_EQ(spec.points().size(), 6u);  // 2 engines x 1 workload x 3 params
  for (std::size_t i = 0; i < spec.points().size(); ++i) {
    const auto& p = spec.points()[i];
    EXPECT_EQ(p.baseline, i % 3 == 0) << i;
    EXPECT_EQ(p.resolved_series(), p.engine + "/dag");
  }
  EXPECT_THROW((void)spec.factory_for("nope"), std::out_of_range);
}

TEST(SweepDriver, ParallelMatchesSerialAndComputesSpeedups) {
  const auto spec = small_spec();

  engine::SweepDriver serial(engine::EngineRegistry::builtins(),
                             engine::SweepOptions{.threads = 1});
  engine::SweepDriver parallel(engine::EngineRegistry::builtins(),
                               engine::SweepOptions{.threads = 4});
  const auto a = serial.run(spec);
  const auto b = parallel.run(spec);
  EXPECT_EQ(serial.last_threads_used(), 1u);
  EXPECT_EQ(parallel.last_threads_used(), 4u);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    // Full determinism regardless of thread interleaving.
    EXPECT_EQ(a[i].report.makespan, b[i].report.makespan);
    EXPECT_EQ(a[i].report.sim_events, b[i].report.sim_events);
    EXPECT_DOUBLE_EQ(a[i].speedup, b[i].speedup);
    EXPECT_FALSE(a[i].report.deadlocked) << a[i].report.diagnosis;
  }
  // Baselines have speedup exactly 1; more workers never hurt this DAG.
  for (const auto& r : a) {
    if (r.spec.baseline) {
      EXPECT_DOUBLE_EQ(r.speedup, 1.0);
    } else {
      EXPECT_GE(r.speedup, 0.9);
    }
  }
}

TEST(SweepDriver, ResultsComeBackInSpecOrder) {
  const auto spec = small_spec();
  const auto results = engine::run_sweep(
      spec, engine::SweepOptions{.threads = 4});
  ASSERT_EQ(results.size(), spec.points().size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].spec.engine, spec.points()[i].engine);
    EXPECT_EQ(results[i].spec.params.num_workers,
              spec.points()[i].params.num_workers);
  }
}

TEST(SweepDriver, CsvAndJsonEmission) {
  const auto results =
      engine::run_sweep(small_spec(), engine::SweepOptions{.threads = 4});

  std::ostringstream csv;
  engine::SweepDriver::write_csv(results, csv);
  const std::string csv_text = csv.str();
  // Header + one line per point.
  std::size_t lines = 0;
  for (const char c : csv_text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1 + results.size());
  EXPECT_NE(csv_text.find("series,label,workload,speedup"), std::string::npos);
  EXPECT_NE(csv_text.find("turnaround_p99_ns"), std::string::npos);
  // Sorted: the nexus++ series sorts before software-rts.
  EXPECT_LT(csv_text.find("nexus++/dag"), csv_text.find("software-rts/dag"));

  std::ostringstream json;
  engine::SweepDriver::write_json(results, json);
  const std::string json_text = json.str();
  EXPECT_EQ(json_text.front(), '[');
  EXPECT_NE(json_text.find("\"engine\": \"nexus++\""), std::string::npos);
  EXPECT_NE(json_text.find("\"deadlocked\": 0"), std::string::npos);
}

TEST(SweepDriver, TimelineExportThatCannotBeWrittenThrows) {
  // A timeline it could not save is an error naming the path, not a
  // silently shorter list of paths written.
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 40;
  const auto trace = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [trace] {
    return std::make_unique<trace::VectorStream>(trace);
  });
  engine::PointSpec point;
  point.engine = "nexus++";
  point.workload = "dag";
  point.params.timeline.enabled = true;
  spec.point(point);
  const auto results =
      engine::run_sweep(spec, engine::SweepOptions{.threads = 1});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_NE(results[0].report.timeline.data, nullptr);
  const std::string path = "/nonexistent-dir/timeline.json";
  try {
    (void)engine::SweepDriver::export_timelines(results, path);
    ADD_FAILURE() << "export_timelines returned for an unwritable path";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(SweepDriver, ExceptionInOnePointIsContained) {
  engine::EngineRegistry reg = engine::EngineRegistry::with_builtins();
  reg.add("explosive", [](const engine::EngineParams&)
              -> std::unique_ptr<engine::Engine> {
    throw std::runtime_error("boom at construction\r\x01");
  });

  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 50;
  const auto trace = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [trace] {
    return std::make_unique<trace::VectorStream>(trace);
  });
  engine::EngineParams one;
  one.num_workers = 1;
  spec.grid({"explosive", "nexus++"}, {"dag"}, {one});

  engine::SweepDriver driver(reg, engine::SweepOptions{.threads = 2});
  const auto results = driver.run(spec);
  ASSERT_EQ(results.size(), 2u);
  // A thrown exception is an infrastructure failure, NOT a diagnosed
  // deadlock: it must land in SweepResult::error and leave the report's
  // deadlock fields untouched, so the CI gate that fails on deadlocks can
  // tell the two failure classes apart.
  EXPECT_FALSE(results[0].report.deadlocked);
  EXPECT_TRUE(results[0].report.diagnosis.empty());
  EXPECT_NE(results[0].error.find("boom"), std::string::npos);
  EXPECT_TRUE(results[0].failed());
  EXPECT_FALSE(results[1].report.deadlocked);
  EXPECT_TRUE(results[1].error.empty());
  EXPECT_FALSE(results[1].failed());
  // An errored point never gets a speedup (and never poisons a series).
  EXPECT_DOUBLE_EQ(results[0].speedup, 0.0);
  EXPECT_GT(results[1].speedup, 0.0);

  // The failure must survive into the machine-readable outputs: the CSV and
  // JSON carry an `error` column holding the exception text, never an
  // empty-looking row for a point that actually threw — while the
  // `deadlocked` column stays 0 for it.
  std::ostringstream csv;
  engine::SweepDriver::write_csv(results, csv);
  EXPECT_NE(csv.str().find("error"), std::string::npos);
  EXPECT_NE(csv.str().find("boom at construction"), std::string::npos);

  std::ostringstream json;
  engine::SweepDriver::write_json(results, json);
  // Control bytes in the text are escaped; none survives raw, so the only
  // one left is the row separator.
  EXPECT_NE(json.str().find("\"error\": \"exception: boom at construction"
                            "\\u000d\\u0001\""),
            std::string::npos)
      << json.str();
  for (const char c : json.str()) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n');
    }
  }
  EXPECT_EQ(json.str().find("\"deadlocked\": 1"), std::string::npos);
  // Healthy points carry an empty error cell.
  EXPECT_NE(json.str().find("\"error\": \"\""), std::string::npos);
}

TEST(SweepDriver, DeadlockDiagnosisStaysDistinctFromError) {
  // A genuinely diagnosed deadlock keeps deadlocked=1 with an empty
  // SweepResult::error — the converse of ExceptionInOnePointIsContained.
  engine::EngineRegistry reg;
  reg.add("always-deadlocks", [](const engine::EngineParams&)
              -> std::unique_ptr<engine::Engine> {
    class DeadlockEngine final : public engine::Engine {
     public:
      [[nodiscard]] std::string name() const override {
        return "always-deadlocks";
      }
      [[nodiscard]] engine::RunReport run(
          std::unique_ptr<trace::TaskStream>) const override {
        engine::RunReport r;
        r.engine = "always-deadlocks";
        r.deadlocked = true;
        r.diagnosis = "table wedged";
        return r;
      }
    };
    return std::make_unique<DeadlockEngine>();
  });

  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 10;
  const auto trace = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [trace] {
    return std::make_unique<trace::VectorStream>(trace);
  });
  engine::PointSpec point;
  point.engine = "always-deadlocks";
  point.workload = "dag";
  spec.point(point);

  engine::SweepDriver driver(reg, engine::SweepOptions{.threads = 1});
  const auto results = driver.run(spec);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].report.deadlocked);
  EXPECT_TRUE(results[0].error.empty());
  EXPECT_TRUE(results[0].failed());

  std::ostringstream json;
  engine::SweepDriver::write_json(results, json);
  EXPECT_NE(json.str().find("\"deadlocked\": 1"), std::string::npos);
  // The deadlock diagnosis rides the error column for human readers, but
  // the deadlocked flag is what classifies it.
  EXPECT_NE(json.str().find("table wedged"), std::string::npos);
}

TEST(RunReport, StageLookupAndTotals) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 100;
  const auto trace = make_random_dag_trace(cfg);
  engine::EngineParams params;
  params.num_workers = 2;
  const auto eng =
      engine::EngineRegistry::builtins().make("nexus++", params);
  const auto r = eng->run(std::make_unique<trace::VectorStream>(trace));

  ASSERT_NE(r.stage("master"), nullptr);
  ASSERT_NE(r.stage("check-deps"), nullptr);
  EXPECT_EQ(r.stage("warp-drive"), nullptr);
  EXPECT_GE(r.total_stall(), 0);
  EXPECT_GT(r.stage("master")->busy, 0);
  EXPECT_EQ(r.num_workers, 2u);
  EXPECT_GT(r.turnaround_ns.count(), 0u);
  EXPECT_FALSE(r.to_table("t").to_string().empty());
  EXPECT_EQ(r.csv_row().size(), engine::RunReport::csv_header().size());
}

TEST(RunReport, WorkerUtilizationCsvCellIsOneScalarAndJsonCarriesPerWorker) {
  // Schema regression: the CSV keeps a single averaged
  // `exec_worker_utilization` cell (never a ';'-packed list — that broke
  // downstream column parsers), while the JSON report carries the full
  // per-worker vector plus min/max. The obs_* profiling columns are part
  // of the pinned header.
  const auto header = engine::RunReport::csv_header();
  std::size_t util_col = header.size();
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "exec_worker_utilization") util_col = i;
  }
  ASSERT_LT(util_col, header.size());
  for (const char* col :
       {"obs_critical_path_ns", "obs_critical_path_tasks", "obs_slack_mean_ns",
        "obs_slack_max_ns", "obs_resolution_overhead_frac",
        "obs_timeline_events", "obs_timeline_dropped"}) {
    EXPECT_NE(std::find(header.begin(), header.end(), col), header.end())
        << col;
  }

  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 60;
  const auto trace = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [trace] {
    return std::make_unique<trace::VectorStream>(trace);
  });
  engine::PointSpec point;
  point.engine = "exec-threads";
  point.workload = "dag";
  point.params.threads = 3;
  spec.point(point);
  const auto results =
      engine::run_sweep(spec, engine::SweepOptions{.threads = 1});
  ASSERT_EQ(results.size(), 1u);
  const auto& report = results[0].report;
  // Three workers and the master, which runs tasks while it waits.
  ASSERT_EQ(report.exec_worker_utilization.size(), 4u);

  const auto row = report.csv_row();
  ASSERT_EQ(row.size(), header.size());
  const std::string& cell = row[util_col];
  EXPECT_EQ(cell.find(';'), std::string::npos) << cell;
  std::size_t parsed = 0;
  const double avg = std::stod(cell, &parsed);
  EXPECT_EQ(parsed, cell.size()) << "cell must be a single float: " << cell;
  EXPECT_NEAR(avg, report.exec_worker_utilization_avg(), 1e-4);

  std::ostringstream json;
  engine::SweepDriver::write_json(results, json);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("\"exec_worker_utilization_per_worker\": ["),
            std::string::npos);
  EXPECT_NE(json_text.find("\"exec_worker_utilization_min\": "),
            std::string::npos);
  EXPECT_NE(json_text.find("\"exec_worker_utilization_max\": "),
            std::string::npos);
}

// --- Pattern workloads through the sweep layer --------------------------------

TEST(SweepDriver, PatternWorkloadsAcrossEnginesAndModes) {
  // Three structurally distinct task-bench grids through three simulated
  // engines under both match modes — the dependence shapes are exercised
  // end to end, not just by the generator's own oracle test.
  engine::SweepSpec spec;
  const std::vector<workloads::PatternKind> kinds = {
      workloads::PatternKind::kStencil1D, workloads::PatternKind::kFft,
      workloads::PatternKind::kAllToAll};
  for (const auto kind : kinds) {
    workloads::PatternConfig cfg;
    cfg.kind = kind;
    cfg.width = 8;
    cfg.steps = 6;
    const auto tasks = workloads::make_pattern_trace(cfg);
    spec.workload(workloads::to_string(kind), [tasks] {
      return std::make_unique<trace::VectorStream>(tasks);
    });
  }
  for (const char* eng : {"nexus++", "nexus-banked", "software-rts"}) {
    for (const core::MatchMode mode :
         {core::MatchMode::kBaseAddr, core::MatchMode::kRange}) {
      for (const auto kind : kinds) {
        engine::PointSpec p;
        p.engine = eng;
        p.workload = workloads::to_string(kind);
        p.params.num_workers = 4;
        p.params.match_mode = mode;
        spec.point(p);
      }
    }
  }
  const auto results =
      engine::run_sweep(spec, engine::SweepOptions{.threads = 4});
  ASSERT_EQ(results.size(), 18u);
  for (const auto& r : results) {
    SCOPED_TRACE(r.spec.engine + "/" + r.spec.workload);
    EXPECT_FALSE(r.failed()) << r.error << r.report.diagnosis;
    EXPECT_EQ(r.report.tasks_completed, 48u);
    // Grids with cross-point dependencies must surface RAW hazards in the
    // dependence-table engines (software-rts classifies hazards only where
    // its list-based model needs to, so it is exempt).
    if (r.spec.engine != "software-rts") {
      EXPECT_GT(r.report.raw_hazards, 0u);
    }
  }
}

// --- METG: the 50%-crossing computation ---------------------------------------

TEST(MetgFromSamples, ExactWhenACurvePointSitsOnTheFloor) {
  EXPECT_DOUBLE_EQ(engine::metg_from_samples({{1024, 0.9},
                                              {512, 0.8},
                                              {256, 0.5},
                                              {128, 0.2}}),
                   256.0);
}

TEST(MetgFromSamples, LogInterpolatesBetweenBracketingRungs) {
  // Crossing halfway (in efficiency) between 1000 ns and 100 ns lands at
  // the log-midpoint: 100 * sqrt(10).
  EXPECT_NEAR(engine::metg_from_samples({{1000, 1.0}, {100, 0.0}}),
              316.22776601683796, 1e-9);
}

TEST(MetgFromSamples, BoundaryCurves) {
  // Never reaches the floor: no granularity is effective.
  EXPECT_DOUBLE_EQ(engine::metg_from_samples({{1024, 0.4}, {512, 0.3}}), 0.0);
  // Never drops below: the smallest sampled granularity still works.
  EXPECT_DOUBLE_EQ(engine::metg_from_samples({{1024, 0.9}, {512, 0.8}}),
                   512.0);
  EXPECT_DOUBLE_EQ(engine::metg_from_samples({}), 0.0);
  // Custom floor.
  EXPECT_DOUBLE_EQ(
      engine::metg_from_samples({{1024, 0.9}, {512, 0.7}, {256, 0.1}}, 0.7),
      512.0);
}

TEST(MetgFromSamples, SortsInputAndCollapsesDuplicateRungs) {
  // Unordered input with a duplicate task_ns: the first occurrence (in
  // descending-sorted order) wins, and the answer matches the clean curve.
  EXPECT_DOUBLE_EQ(engine::metg_from_samples({{128, 0.2},
                                              {1024, 0.9},
                                              {256, 0.5},
                                              {512, 0.8},
                                              {512, 0.1}}),
                   256.0);
}

TEST(RunEfficiency, MatchesItsDefinition) {
  engine::RunReport r;
  EXPECT_DOUBLE_EQ(engine::run_efficiency(r), 0.0);
  r.makespan = sim::ns(1000);
  r.total_exec_time = sim::ns(2000);
  r.num_workers = 4;
  EXPECT_DOUBLE_EQ(engine::run_efficiency(r), 0.5);
}

// --- METG: ladder driver ------------------------------------------------------

TEST(SweepDriver, RunMetgDescendsAndStampsTheCrossingRung) {
  engine::MetgSpec m;
  m.engine = "nexus++";
  m.workload = "pattern:stencil1d";
  m.params.num_workers = 8;
  m.start_task_ns = 65'536;
  m.min_task_ns = 64;  // deep enough that sim overhead must cross 50%
  m.workload_at = [](std::uint64_t task_ns) -> engine::StreamFactory {
    workloads::PatternConfig cfg;
    cfg.width = 8;
    cfg.steps = 6;
    cfg.task_ns = task_ns;
    const auto tasks = workloads::make_pattern_trace(cfg);
    return [tasks] { return std::make_unique<trace::VectorStream>(tasks); };
  };
  engine::SweepDriver driver(engine::EngineRegistry::builtins(),
                             engine::SweepOptions{.threads = 1});
  const auto result = driver.run_metg(m);
  ASSERT_TRUE(result.error.empty()) << result.error;
  ASSERT_GE(result.samples.size(), 2u);
  ASSERT_EQ(result.runs.size(), result.samples.size());

  // The ladder halves strictly and stops after the first sub-floor rung.
  for (std::size_t i = 0; i + 1 < result.samples.size(); ++i) {
    EXPECT_EQ(result.samples[i].task_ns, 2 * result.samples[i + 1].task_ns);
    EXPECT_GE(result.samples[i].efficiency, 0.5) << i;
  }
  EXPECT_LT(result.samples.back().efficiency, 0.5);
  EXPECT_GT(result.metg_ns, 0.0);
  EXPECT_DOUBLE_EQ(result.metg_ns,
                   engine::metg_from_samples(result.samples));

  // Exactly one rung — the last at/above the floor — carries the METG in
  // its report; rung labels carry the granularity and the series groups
  // the ladder.
  std::size_t stamped = 0;
  for (const auto& run : result.runs) {
    EXPECT_NE(run.spec.label.find("task_ns="), std::string::npos);
    EXPECT_EQ(run.spec.resolved_series(), "nexus++/pattern:stencil1d");
    if (run.report.metg_ns > 0.0) {
      ++stamped;
      EXPECT_DOUBLE_EQ(run.report.metg_ns, result.metg_ns);
    }
  }
  EXPECT_EQ(stamped, 1u);

  // The efficiency each sample reports is the run's own efficiency.
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.samples[i].efficiency,
                     engine::run_efficiency(result.runs[i].report));
  }
}

TEST(SweepDriver, RunMetgRejectsDegenerateSpecs) {
  engine::SweepDriver driver(engine::EngineRegistry::builtins(),
                             engine::SweepOptions{.threads = 1});
  engine::MetgSpec no_factory;
  no_factory.engine = "nexus++";
  const auto a = driver.run_metg(no_factory);
  EXPECT_FALSE(a.error.empty());
  EXPECT_TRUE(a.samples.empty());
  EXPECT_DOUBLE_EQ(a.metg_ns, 0.0);

  engine::MetgSpec zero_start;
  zero_start.engine = "nexus++";
  zero_start.start_task_ns = 0;
  zero_start.workload_at = [](std::uint64_t) -> engine::StreamFactory {
    return [] {
      return std::make_unique<trace::VectorStream>(
          workloads::make_pattern_trace(workloads::PatternConfig{}));
    };
  };
  const auto b = driver.run_metg(zero_start);
  EXPECT_FALSE(b.error.empty());
}

// --- METG: reporting schema ---------------------------------------------------

TEST(RunReport, MetgAndKernelColumnsRideTheSchemaAndStayOutOfSpeedup) {
  const auto header = engine::RunReport::csv_header();
  for (const char* col : {"metg_ns", "exec_kernel",
                          "exec_kernel_work_units"}) {
    EXPECT_NE(std::find(header.begin(), header.end(), col), header.end())
        << col;
  }

  // Plain runs leave metg_ns empty (null in JSON) — "not measured", never a
  // fake zero METG — and the cell is excluded from speedup math by
  // construction: speedup_vs compares makespans only.
  const auto results =
      engine::run_sweep(small_spec(60), engine::SweepOptions{.threads = 2});
  std::size_t metg_col = header.size();
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == "metg_ns") metg_col = i;
  }
  ASSERT_LT(metg_col, header.size());
  for (const auto& r : results) {
    const auto row = r.report.csv_row();
    ASSERT_EQ(row.size(), header.size());
    EXPECT_EQ(row[metg_col], "");
  }
  std::ostringstream json;
  engine::SweepDriver::write_json(results, json);
  EXPECT_NE(json.str().find("\"metg_ns\": null"), std::string::npos);
  EXPECT_EQ(json.str().find("\"metg_ns\": 0"), std::string::npos);

  engine::RunReport fast;
  fast.makespan = sim::ns(500);
  engine::RunReport slow;
  slow.makespan = sim::ns(1000);
  slow.metg_ns = 123456.0;  // must not leak into the speedup
  EXPECT_DOUBLE_EQ(fast.speedup_vs(slow), 2.0);
  EXPECT_DOUBLE_EQ(slow.speedup_vs(slow), 1.0);

  // A stamped METG surfaces in the CSV cell.
  engine::RunReport stamped;
  stamped.metg_ns = 2048.0;
  const auto row = stamped.csv_row();
  EXPECT_EQ(row[metg_col], "2048.000");
}

// --- The report schema -------------------------------------------------------

TEST(RunReport, CsvHeaderIsPinned) {
  const std::vector<std::string> expected = {
      "engine", "workers", "makespan_ns", "tasks_expected", "tasks_completed",
      "deadlocked", "avg_core_utilization", "total_exec_ns", "total_stall_ns",
      "turnaround_mean_ns", "turnaround_p50_ns", "turnaround_p95_ns",
      "turnaround_p99_ns", "mem_transfers", "mem_contention_wait_ns",
      "ready_queue_peak", "tp_max_used", "dt_max_live", "dt_longest_chain",
      "dt_ko_dummies", "raw_hazards", "war_hazards", "waw_hazards",
      "dt_avg_lookup_probes", "sim_events", "banks", "bank_conflict_ns",
      "bank_busy_imbalance", "bank_occupancy_imbalance", "bank_peak_live",
      "bank_max_live_per_bank", "exec_tasks_per_sec", "exec_kernel",
      "exec_kernel_work_units", "exec_worker_utilization",
      "obs_critical_path_ns", "obs_critical_path_tasks", "obs_slack_mean_ns",
      "obs_slack_max_ns", "obs_resolution_overhead_frac",
      "obs_timeline_events", "obs_timeline_dropped", "metg_ns", "diagnosis"};
  EXPECT_EQ(engine::RunReport::csv_header(), expected);
}

TEST(RunReport, CellsThatDoNotApplyAreEmptyAndMeasuredZerosStay) {
  using Names = std::vector<std::string>;
  const Names mem = {"mem_transfers", "mem_contention_wait_ns"};
  const Names tables = {"ready_queue_peak", "tp_max_used", "dt_max_live",
                        "dt_longest_chain", "dt_ko_dummies",
                        "dt_avg_lookup_probes"};
  const Names bank = {"banks", "bank_conflict_ns", "bank_busy_imbalance",
                      "bank_occupancy_imbalance", "bank_peak_live",
                      "bank_max_live_per_bank"};
  const Names exec = {"exec_tasks_per_sec", "exec_kernel",
                      "exec_kernel_work_units", "exec_worker_utilization"};
  const Names obs = {"obs_critical_path_ns", "obs_critical_path_tasks",
                     "obs_slack_mean_ns", "obs_slack_max_ns",
                     "obs_resolution_overhead_frac", "obs_timeline_events",
                     "obs_timeline_dropped"};
  auto join = [](std::initializer_list<Names> parts) {
    Names all;
    for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
    return all;
  };
  struct Case {
    std::string engine;
    std::uint32_t banks;
    bool traced;
    Names empty;
  };
  const std::vector<Case> cases = {
      {"nexus++", 0, false, join({bank, exec, obs, {"metg_ns"}})},
      {"nexus++", 0, true, join({bank, exec, {"metg_ns"}})},
      {"nexus-banked", 4, false,
       join({exec, obs, {"metg_ns", "dt_max_live"}})},
      {"software-rts", 0, false,
       join({tables, bank, exec, obs, {"sim_events", "metg_ns"}})},
      {"exec-threads", 0, false,
       join({mem, bank, obs, {"sim_events", "metg_ns"}})},
  };
  const auto header = engine::RunReport::csv_header();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.engine + (c.traced ? " traced" : ""));
    engine::SweepSpec spec;
    spec.workload("gaussian", [] {
      return workloads::WorkloadLibrary::builtins().make_stream(
          "gaussian:n=24");
    });
    engine::PointSpec point;
    point.engine = c.engine;
    point.workload = "gaussian";
    point.params.num_workers = 8;
    point.params.threads = 2;
    point.params.banks = c.banks;
    point.params.timeline.enabled = c.traced;
    spec.point(point);
    const auto results =
        engine::run_sweep(spec, engine::SweepOptions{.threads = 1});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].failed()) << results[0].error;
    const auto row = results[0].report.csv_row();
    const std::string json = engine::SweepDriver::to_json(results[0]);
    ASSERT_EQ(row.size(), header.size());
    for (std::size_t i = 0; i < header.size(); ++i) {
      const bool applies = std::find(c.empty.begin(), c.empty.end(),
                                     header[i]) == c.empty.end();
      const bool null_in_json =
          json.find("\"" + header[i] + "\": null") != std::string::npos;
      EXPECT_EQ(null_in_json, !applies) << header[i];
      if (!applies) {
        EXPECT_EQ(row[i], "") << header[i];
      } else if (header[i] != "diagnosis") {
        EXPECT_NE(row[i], "") << header[i];
      }
    }
  }

  // Measured zeros that apply keep their zero.
  const auto eng = engine::EngineRegistry::builtins().make("nexus++", {});
  const auto report = eng->run(
      workloads::WorkloadLibrary::builtins().make_stream("gaussian:n=24"));
  const auto row = report.csv_row();
  auto cell = [&](const std::string& name) {
    return row[static_cast<std::size_t>(
        std::find(header.begin(), header.end(), name) - header.begin())];
  };
  EXPECT_EQ(report.dt_ko_dummies, 0u);
  EXPECT_EQ(cell("dt_ko_dummies"), "0");
  EXPECT_EQ(cell("waw_hazards"), "0");
  EXPECT_EQ(cell("mem_contention_wait_ns"), "0.000");
}

/// Passes a trace's tasks through, but claims `claimed` of them.
class MiscountedStream final : public trace::TaskStream {
 public:
  MiscountedStream(std::shared_ptr<const std::vector<trace::TaskRecord>> tasks,
                   std::uint64_t claimed)
      : inner_(std::move(tasks)), claimed_(claimed) {}

  std::optional<trace::TaskRecord> next() override { return inner_.next(); }
  [[nodiscard]] std::uint64_t total_tasks() const override {
    return claimed_;
  }

 private:
  trace::VectorStream inner_;
  std::uint64_t claimed_;
};

TEST(SweepDriver, MiscountedStreamDiagnosisReachesEveryOutput) {
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 40;
  const auto trace = make_random_dag_trace(cfg);
  engine::SweepSpec spec;
  spec.workload("dag", [trace] {
    return std::make_unique<MiscountedStream>(trace, 25);
  });
  engine::PointSpec point;
  point.engine = "exec-threads";
  point.workload = "dag";
  point.params.threads = 2;
  spec.point(point);
  const auto results =
      engine::run_sweep(spec, engine::SweepOptions{.threads = 1});
  ASSERT_EQ(results.size(), 1u);
  const auto& report = results[0].report;
  EXPECT_FALSE(report.deadlocked);
  EXPECT_TRUE(results[0].error.empty());
  const std::string& why = report.diagnosis;
  EXPECT_NE(why.find("said 25"), std::string::npos) << why;
  EXPECT_NE(why.find("produced 40"), std::string::npos) << why;

  const auto header = engine::RunReport::csv_header();
  const auto row = report.csv_row();
  ASSERT_EQ(header.back(), "diagnosis");
  EXPECT_EQ(row.back(), why);
  std::ostringstream csv;
  engine::SweepDriver::write_csv(results, csv);
  EXPECT_NE(csv.str().find("\"" + why + "\""), std::string::npos)
      << csv.str();
  std::ostringstream json;
  engine::SweepDriver::write_json(results, json);
  EXPECT_NE(json.str().find("\"diagnosis\": \"" + why + "\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"deadlocked\": 0"), std::string::npos);
  EXPECT_NE(json.str().find("\"error\": \"\""), std::string::npos);
  EXPECT_NE(report.to_table("t").to_string().find(why), std::string::npos);
  // The bench tables name it too, truncated like a FAIL, as a completed run.
  const std::string table =
      engine::SweepDriver::to_table("t", results).to_string();
  EXPECT_NE(table.find("ok: stream length mismatch: total_tasks() said 25"),
            std::string::npos)
      << table;
  EXPECT_EQ(table.find("FAIL"), std::string::npos) << table;
}

}  // namespace
}  // namespace nexuspp
