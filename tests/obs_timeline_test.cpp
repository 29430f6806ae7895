// Timeline observability tests: recorder mechanics (ring bounds, drop
// accounting, allocation-free record path under NoAllocScope), the
// critical-path analysis on a synthetic grant forest, end-to-end tracing
// through the engines (sim-clock determinism across repeated runs,
// exec-threads threads=1 structural determinism, tracing-off inertness),
// and Chrome-trace export validated by tools/validate_trace_events.py
// when a Python interpreter was found at configure time.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "engine/run_report.hpp"
#include "engine/sweep.hpp"
#include "obs/critical_path.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_export.hpp"
#include "util/invariant.hpp"
#include "workloads/library.hpp"

#ifndef NEXUSPP_TRACE_VALIDATOR
#define NEXUSPP_TRACE_VALIDATOR ""
#endif
#ifndef NEXUSPP_PYTHON
#define NEXUSPP_PYTHON ""
#endif

namespace {

using namespace nexuspp;

constexpr const char* kWorkload = "h264:rows=8,cols=8";

engine::RunReport run_engine(const std::string& name,
                             const engine::EngineParams& params) {
  const auto& registry = engine::EngineRegistry::builtins();
  const auto& library = workloads::WorkloadLibrary::builtins();
  const auto eng = registry.make(name, params);
  return eng->run(library.make_stream(kWorkload));
}

engine::EngineParams traced_params(std::uint32_t workers) {
  engine::EngineParams params;
  params.num_workers = workers;
  params.timeline.enabled = true;
  return params;
}

std::vector<std::uint64_t> run_order(const obs::Timeline& timeline) {
  std::vector<std::uint64_t> serials;
  for (const auto& track : timeline.tracks) {
    for (const auto& event : track.events) {
      if (event.kind == obs::EventKind::kRun) serials.push_back(event.task);
    }
  }
  return serials;
}

// --- Recorder mechanics -------------------------------------------------------

TEST(TimelineRecorder, RingBoundsAndDropAccounting) {
  obs::TimelineRecorder rec("t", "sim", 2);
  const auto track = rec.add_track("a");
  rec.record(track, obs::EventKind::kRun, 5.0, 1.0, 1, 0);
  rec.record(track, obs::EventKind::kRun, 3.0, 1.0, 2, 0);
  rec.record(track, obs::EventKind::kRun, 4.0, 1.0, 3, 0);  // over capacity
  const obs::Timeline timeline = std::move(rec).finish();
  ASSERT_EQ(timeline.tracks.size(), 1u);
  EXPECT_EQ(timeline.tracks[0].events.size(), 2u);
  EXPECT_EQ(timeline.tracks[0].dropped, 1u);
  EXPECT_EQ(timeline.total_events(), 2u);
  EXPECT_EQ(timeline.total_dropped(), 1u);
  // finish() sorts each track by timestamp.
  EXPECT_LE(timeline.tracks[0].events[0].ts_ns,
            timeline.tracks[0].events[1].ts_ns);
}

TEST(TimelineRecorder, RecordPathIsAllocationFree) {
  obs::TimelineRecorder rec("t", "wall", 1024);
  const auto track = rec.add_track("w");
  {
    // Under NEXUSPP_CHECKED any allocation in here aborts the process;
    // in plain builds the scope is a no-op and this documents the claim.
    util::NoAllocScope guard("timeline-record");
    for (int i = 0; i < 600; ++i) {
      rec.record(track, obs::EventKind::kRun, static_cast<double>(i), 1.0,
                 static_cast<std::uint64_t>(i), 0);
    }
    rec.record(track, obs::EventKind::kFinish, rec.now_ns(), 0.0, 600, 0);
  }
  const obs::Timeline timeline = std::move(rec).finish();
  EXPECT_EQ(timeline.total_events(), 601u);
  EXPECT_EQ(timeline.total_dropped(), 0u);
}

// --- Critical-path analysis ---------------------------------------------------

TEST(CriticalPath, ChainPlusIndependentTask) {
  obs::TimelineRecorder rec("synthetic", "sim", 64);
  const auto track = rec.add_track("w0");
  // Task 1 (100 ns) grants task 2 (50 ns); task 3 (30 ns) is independent.
  rec.record(track, obs::EventKind::kReady, 0.0, 0.0, 1, obs::kNoPred);
  rec.record(track, obs::EventKind::kRun, 0.0, 100.0, 1, 0);
  rec.record(track, obs::EventKind::kReady, 100.0, 0.0, 2, 1);
  rec.record(track, obs::EventKind::kRun, 100.0, 50.0, 2, 0);
  rec.record(track, obs::EventKind::kReady, 0.0, 0.0, 3, obs::kNoPred);
  rec.record(track, obs::EventKind::kRun, 0.0, 30.0, 3, 0);
  // 20 ns of resolution work (submit spans) next to 180 ns of run time.
  rec.record(track, obs::EventKind::kSubmit, 0.0, 20.0, 1, 0);
  const obs::Timeline timeline = std::move(rec).finish();

  const obs::TimelineAnalysis analysis = obs::analyze(timeline);
  EXPECT_EQ(analysis.tasks, 3u);
  EXPECT_DOUBLE_EQ(analysis.critical_path_ns, 150.0);
  EXPECT_EQ(analysis.critical_path_tasks, 2u);
  EXPECT_DOUBLE_EQ(analysis.slack_max_ns, 120.0);  // task 3
  EXPECT_DOUBLE_EQ(analysis.slack_mean_ns, 40.0);
  EXPECT_DOUBLE_EQ(analysis.resolution_overhead_frac, 20.0 / 200.0);
}

TEST(CriticalPath, CorruptGrantCycleDoesNotHang) {
  obs::TimelineRecorder rec("synthetic", "sim", 16);
  const auto track = rec.add_track("w0");
  rec.record(track, obs::EventKind::kReady, 0.0, 0.0, 1, 2);  // 1 <- 2
  rec.record(track, obs::EventKind::kRun, 0.0, 10.0, 1, 0);
  rec.record(track, obs::EventKind::kReady, 0.0, 0.0, 2, 1);  // 2 <- 1
  rec.record(track, obs::EventKind::kRun, 0.0, 10.0, 2, 0);
  const obs::TimelineAnalysis analysis =
      obs::analyze(std::move(rec).finish());
  EXPECT_EQ(analysis.tasks, 2u);
  EXPECT_GT(analysis.critical_path_ns, 0.0);
}

// --- Engine integration -------------------------------------------------------

TEST(EngineTimeline, SimEngineDeterministicAcrossRepeatedRuns) {
  const auto r1 = run_engine("nexus++", traced_params(4));
  const auto r2 = run_engine("nexus++", traced_params(4));
  ASSERT_NE(r1.timeline.data, nullptr);
  ASSERT_NE(r2.timeline.data, nullptr);
  EXPECT_GT(r1.obs_timeline_events, 0u);

  // Same sim clock, same engine, same stream: the recorded timelines and
  // every derived obs_* scalar must be bit-identical.
  EXPECT_EQ(r1.obs_critical_path_ns, r2.obs_critical_path_ns);
  EXPECT_EQ(r1.obs_critical_path_tasks, r2.obs_critical_path_tasks);
  EXPECT_EQ(r1.obs_slack_mean_ns, r2.obs_slack_mean_ns);
  EXPECT_EQ(r1.obs_slack_max_ns, r2.obs_slack_max_ns);
  EXPECT_EQ(r1.obs_resolution_overhead_frac, r2.obs_resolution_overhead_frac);
  EXPECT_EQ(r1.obs_timeline_events, r2.obs_timeline_events);
  EXPECT_EQ(r1.obs_timeline_dropped, r2.obs_timeline_dropped);

  const obs::Timeline& t1 = *r1.timeline.data;
  const obs::Timeline& t2 = *r2.timeline.data;
  ASSERT_EQ(t1.tracks.size(), t2.tracks.size());
  for (std::size_t i = 0; i < t1.tracks.size(); ++i) {
    EXPECT_EQ(t1.tracks[i].name, t2.tracks[i].name);
    EXPECT_EQ(t1.tracks[i].dropped, t2.tracks[i].dropped);
    ASSERT_EQ(t1.tracks[i].events.size(), t2.tracks[i].events.size())
        << t1.tracks[i].name;
    EXPECT_TRUE(t1.tracks[i].events == t2.tracks[i].events)
        << "event mismatch on track " << t1.tracks[i].name;
  }
}

TEST(EngineTimeline, TracingIsBehaviorNeutralOnSimEngines) {
  for (const char* name : {"nexus++", "nexus-banked"}) {
    engine::EngineParams off;
    off.num_workers = 4;
    const auto r_off = run_engine(name, off);
    const auto r_on = run_engine(name, traced_params(4));
    // The hooks never touch simulated state: identical makespan and event
    // count with tracing on or off.
    EXPECT_EQ(r_on.makespan, r_off.makespan) << name;
    EXPECT_EQ(r_on.sim_events, r_off.sim_events) << name;
    EXPECT_EQ(r_on.tasks_completed, r_off.tasks_completed) << name;
  }
}

TEST(EngineTimeline, DisabledTracingLeavesReportInert) {
  engine::EngineParams params;
  params.num_workers = 4;
  const auto report = run_engine("nexus++", params);
  EXPECT_EQ(report.timeline.data, nullptr);
  EXPECT_EQ(report.obs_timeline_events, 0u);
  EXPECT_EQ(report.obs_critical_path_ns, 0.0);
  EXPECT_EQ(report.obs_critical_path_tasks, 0u);
}

TEST(EngineTimeline, ExecThreadsSingleThreadStructurallyDeterministic) {
  engine::EngineParams params = traced_params(1);
  params.threads = 1;
  const auto r1 = run_engine("exec-threads", params);
  const auto r2 = run_engine("exec-threads", params);
  ASSERT_NE(r1.timeline.data, nullptr);
  ASSERT_NE(r2.timeline.data, nullptr);
  EXPECT_EQ(r1.timeline.data->clock, "wall");

  // Wall timestamps differ run to run; the *structure* — which tasks ran,
  // in which order — is the threads=1 determinism anchor.
  const auto order1 = run_order(*r1.timeline.data);
  const auto order2 = run_order(*r2.timeline.data);
  EXPECT_EQ(order1, order2);
  EXPECT_EQ(order1.size(), r1.tasks_completed);
  // Critical-path *membership* is wall-clock dependent (durations jitter
  // run to run), so only sanity-check that analysis ran on both.
  EXPECT_GT(r1.obs_critical_path_tasks, 0u);
  EXPECT_GT(r2.obs_critical_path_tasks, 0u);
}

// --- Export -------------------------------------------------------------------

int run_validator(const std::string& path) {
  const std::string python = NEXUSPP_PYTHON;
  const std::string validator = NEXUSPP_TRACE_VALIDATOR;
  if (python.empty() || validator.empty()) return -1;
  const std::string command = "'" + python + "' '" + validator + "' '" +
                              path + "' >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
}

TEST(TraceExport, SimAndExecExportsValidateIdentically) {
  const auto r_sim = run_engine("nexus++", traced_params(2));
  engine::EngineParams exec_params = traced_params(1);
  exec_params.threads = 2;
  const auto r_exec = run_engine("exec-threads", exec_params);
  ASSERT_NE(r_sim.timeline.data, nullptr);
  ASSERT_NE(r_exec.timeline.data, nullptr);

  const std::string dir = ::testing::TempDir();
  const std::string sim_path = dir + "obs_timeline_sim.json";
  const std::string exec_path = dir + "obs_timeline_exec.json";

  ASSERT_TRUE(obs::save_chrome_trace(*r_sim.timeline.data, sim_path));
  ASSERT_TRUE(obs::save_chrome_trace(*r_exec.timeline.data, exec_path));

  // Well-formedness floor without Python: both documents open with the
  // same top-level schema markers.
  for (const std::string& path : {sim_path, exec_path}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos) << path;
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos) << path;
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos) << path;
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos) << path;
  }

  const int sim_ok = run_validator(sim_path);
  const int exec_ok = run_validator(exec_path);
  if (sim_ok == -1) {
    GTEST_SKIP() << "no python3 found at configure time";
  }
  EXPECT_EQ(sim_ok, 0) << "sim export failed schema validation";
  EXPECT_EQ(exec_ok, 0) << "exec export failed schema validation";
}

TEST(TraceExport, SaveFailsCleanlyOnBadPath) {
  const auto report = run_engine("nexus++", traced_params(1));
  ASSERT_NE(report.timeline.data, nullptr);
  EXPECT_FALSE(obs::save_chrome_trace(*report.timeline.data,
                                      "/nonexistent-dir/out.json"));
}

// --- The embedded report -----------------------------------------------------

TEST(TraceExport, EmbedsTheSweepReportOfItsRun) {
  engine::SweepSpec spec;
  spec.workload(kWorkload, [] {
    return workloads::WorkloadLibrary::builtins().make_stream(kWorkload);
  });
  engine::PointSpec point;
  point.engine = "nexus++";
  point.workload = kWorkload;
  point.params = traced_params(2);
  spec.point(point);
  const auto results = engine::run_sweep(spec);
  ASSERT_EQ(results.size(), 1u);
  const std::string path = ::testing::TempDir() + "obs_timeline_report.json";
  ASSERT_EQ(engine::SweepDriver::export_timelines(results, path),
            std::vector<std::string>{path});

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  const std::size_t report = doc.find("\"report\": {");
  ASSERT_NE(report, std::string::npos);
  const std::size_t events = doc.find("\"traceEvents\"");
  ASSERT_LT(report, events);
  const std::string embedded = doc.substr(report, events - report);
  const auto header = engine::RunReport::csv_header();
  for (const auto& name : header) {
    EXPECT_NE(embedded.find("\"" + name + "\": "), std::string::npos)
        << name;
  }
  const auto row = results[0].report.csv_row();
  const auto col = static_cast<std::size_t>(
      std::find(header.begin(), header.end(), "tasks_completed") -
      header.begin());
  ASSERT_LT(col, row.size());
  EXPECT_NE(row[col], "");
  EXPECT_NE(embedded.find("\"tasks_completed\": " + row[col] + ","),
            std::string::npos);
  EXPECT_NE(embedded.find("\"stages\": [{\"name\": \"master\""),
            std::string::npos);

  const int ok = run_validator(path);
  if (ok == -1) GTEST_SKIP() << "no python3 found at configure time";
  EXPECT_EQ(ok, 0) << "export with an embedded report failed validation";
}

}  // namespace
