// Tests for the named workload catalog and the application-shaped
// generators it registers: spec parsing, option validation, task-count
// formulas, DAG structure, determinism, and end-to-end completion of the
// factorization / spatial streams on the simulated runtimes.

#include <gtest/gtest.h>

#include <set>

#include "engine/registry.hpp"
#include "workloads/factorization.hpp"
#include "workloads/library.hpp"
#include "workloads/spatial.hpp"

namespace nexuspp {
namespace {

using workloads::WorkloadLibrary;

TEST(WorkloadSpec, ParsesNameAndOptions) {
  const auto [name, opts] =
      workloads::parse_workload_spec("tiled-cholesky:tiles=12,gflops=1.5");
  EXPECT_EQ(name, "tiled-cholesky");
  ASSERT_EQ(opts.size(), 2u);
  EXPECT_EQ(opts[0], (std::pair<std::string, std::string>{"tiles", "12"}));
  EXPECT_EQ(opts[1], (std::pair<std::string, std::string>{"gflops", "1.5"}));
}

TEST(WorkloadSpec, BareNameHasNoOptions) {
  const auto [name, opts] = workloads::parse_workload_spec("spatial");
  EXPECT_EQ(name, "spatial");
  EXPECT_TRUE(opts.empty());
}

TEST(WorkloadSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)workloads::parse_workload_spec(""),
               std::invalid_argument);
  EXPECT_THROW((void)workloads::parse_workload_spec(":tiles=2"),
               std::invalid_argument);
  EXPECT_THROW((void)workloads::parse_workload_spec("x:novalue"),
               std::invalid_argument);
  EXPECT_THROW((void)workloads::parse_workload_spec("x:=3"),
               std::invalid_argument);
}

TEST(WorkloadLibraryTest, RegistersApplicationWorkloads) {
  const auto& lib = WorkloadLibrary::builtins();
  for (const char* name :
       {"h264", "gaussian", "tiled-cholesky", "tiled-lu", "spatial",
        "halo-stencil", "mixed-tiles", "wide", "random-dag"}) {
    EXPECT_TRUE(lib.contains(name)) << name;
    EXPECT_FALSE(lib.info(name).summary.empty()) << name;
    EXPECT_FALSE(lib.info(name).options.empty()) << name;
  }
}

TEST(WorkloadLibraryTest, UnknownNameListsRegistered) {
  const auto& lib = WorkloadLibrary::builtins();
  try {
    (void)lib.make_trace("no-such-workload");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tiled-cholesky"),
              std::string::npos);
  }
}

TEST(WorkloadLibraryTest, DuplicateOptionRejectedAsDuplicate) {
  const auto& lib = WorkloadLibrary::builtins();
  try {
    (void)lib.make_trace("tiled-cholesky:tiles=4,tiles=8");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(WorkloadLibraryTest, UnknownOptionRejected) {
  const auto& lib = WorkloadLibrary::builtins();
  EXPECT_THROW((void)lib.make_trace("tiled-cholesky:rows=4"),
               std::invalid_argument);
  EXPECT_THROW((void)lib.make_trace("spatial:fill=high"),
               std::invalid_argument);
  EXPECT_THROW((void)lib.make_stream("tiled-lu:tiles=banana"),
               std::invalid_argument);
}

TEST(WorkloadLibraryTest, NegativeIntegerOptionRejected) {
  // Digits only: a minus sign must not wrap to a huge seed or count.
  const auto& lib = WorkloadLibrary::builtins();
  for (const char* spec : {"random-dag:seed=-1", "random-dag:tasks=-1",
                           "random-dag:tasks=+5", "random-dag:tasks= 5"}) {
    SCOPED_TRACE(spec);
    try {
      (void)lib.make_trace(spec);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("expected a non-negative integer"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WorkloadLibraryTest, OptionsReachTheGenerators) {
  const auto& lib = WorkloadLibrary::builtins();
  EXPECT_EQ(lib.make_trace("tiled-cholesky:tiles=5")->size(),
            workloads::cholesky_task_count(5));
  EXPECT_EQ(lib.make_trace("tiled-lu:tiles=5")->size(),
            workloads::lu_task_count(5));
  EXPECT_EQ(lib.make_stream("gaussian:n=10")->total_tasks(),
            (10ull * 10 + 10 - 2) / 2);
}

TEST(WorkloadLibraryTest, StreamFactoryIsReusable) {
  const auto& lib = WorkloadLibrary::builtins();
  const auto factory = lib.make_stream_factory("tiled-cholesky:tiles=4");
  const auto total = workloads::cholesky_task_count(4);
  for (int i = 0; i < 2; ++i) {
    auto stream = factory();
    std::uint64_t pulled = 0;
    while (stream->next().has_value()) ++pulled;
    EXPECT_EQ(pulled, total);
  }
  // Lazy path (gaussian overrides build_stream) is reusable too.
  const auto lazy = lib.make_stream_factory("gaussian:n=8");
  EXPECT_EQ(lazy()->total_tasks(), lazy()->total_tasks());
}

TEST(WorkloadLibraryTest, StreamFactoryValidatesOptionsEagerly) {
  const auto& lib = WorkloadLibrary::builtins();
  EXPECT_THROW((void)lib.make_stream_factory("gaussian:rows=4"),
               std::invalid_argument);
}

// --- Factorization DAGs -------------------------------------------------------

TEST(Factorization, TaskCountFormulas) {
  // t=2: [POTRF + 1 TRSM + 1 SYRK] + [POTRF] = 4; LU: 1+2+1 + 1 = 5.
  EXPECT_EQ(workloads::cholesky_task_count(2), 4u);
  EXPECT_EQ(workloads::lu_task_count(2), 5u);
  // t=4 Cholesky: k=0: 1+3+3+3; k=1: 1+2+2+1; k=2: 1+1+1; k=3: 1 -> 20.
  EXPECT_EQ(workloads::cholesky_task_count(4), 20u);
  // t=4 LU: k=0: 1+6+9; k=1: 1+4+4; k=2: 1+2+1; k=3: 1 -> 30.
  EXPECT_EQ(workloads::lu_task_count(4), 30u);
}

TEST(Factorization, TracesMatchCountAndAreDeterministic) {
  workloads::FactorizationConfig cfg;
  cfg.tiles = 6;
  cfg.tile_elems = 16;
  const auto a = workloads::make_cholesky_trace(cfg);
  EXPECT_EQ(a->size(), workloads::cholesky_task_count(6));
  EXPECT_EQ(*a, *workloads::make_cholesky_trace(cfg));
  const auto lu = workloads::make_lu_trace(cfg);
  EXPECT_EQ(lu->size(), workloads::lu_task_count(6));
  EXPECT_EQ(*lu, *workloads::make_lu_trace(cfg));
}

TEST(Factorization, CholeskyStructure) {
  workloads::FactorizationConfig cfg;
  cfg.tiles = 4;
  cfg.tile_elems = 8;
  const auto tasks = workloads::make_cholesky_trace(cfg);

  // First task is the step-0 POTRF on the top-left diagonal tile.
  ASSERT_FALSE(tasks->empty());
  EXPECT_EQ(tasks->front().fn, workloads::kFnPotrf);
  ASSERT_EQ(tasks->front().params.size(), 1u);
  EXPECT_EQ(tasks->front().params[0].mode, core::AccessMode::kInOut);
  EXPECT_EQ(tasks->front().params[0].addr, cfg.tile_addr(0, 0));
  // Last task is the final POTRF on the bottom-right tile.
  EXPECT_EQ(tasks->back().fn, workloads::kFnPotrf);
  EXPECT_EQ(tasks->back().params[0].addr, cfg.tile_addr(3, 3));

  // Every GEMM has exactly two in-tiles and one inout tile; serials are
  // the submission order; no descriptor duplicates a base address.
  std::uint64_t expected_serial = 0;
  for (const auto& t : *tasks) {
    EXPECT_EQ(t.serial, expected_serial++);
    EXPECT_GT(t.exec_time, 0);
    if (t.fn == workloads::kFnGemm) {
      ASSERT_EQ(t.params.size(), 3u);
      EXPECT_EQ(t.params[0].mode, core::AccessMode::kIn);
      EXPECT_EQ(t.params[1].mode, core::AccessMode::kIn);
      EXPECT_EQ(t.params[2].mode, core::AccessMode::kInOut);
    }
    std::set<core::Addr> bases;
    for (const auto& p : t.params) {
      EXPECT_TRUE(bases.insert(p.addr).second)
          << "duplicate base in task " << t.serial;
      EXPECT_EQ(p.size, cfg.tile_bytes());
    }
  }
}

TEST(Factorization, GemmOutweighsPotrf) {
  workloads::FactorizationConfig cfg;
  cfg.tiles = 3;
  cfg.tile_elems = 48;  // divisible by 3: b^3/3 FLOPs stay integral
  const auto tasks = workloads::make_cholesky_trace(cfg);
  sim::Time potrf = 0;
  sim::Time gemm = 0;
  for (const auto& t : *tasks) {
    if (t.fn == workloads::kFnPotrf) potrf = t.exec_time;
    if (t.fn == workloads::kFnGemm) gemm = t.exec_time;
  }
  ASSERT_GT(potrf, 0);
  ASSERT_GT(gemm, 0);
  // GEMM does 2 b^3 FLOPs vs POTRF's b^3/3.
  EXPECT_EQ(gemm, 6 * potrf);
}

TEST(Factorization, ValidatesConfig) {
  workloads::FactorizationConfig cfg;
  cfg.tiles = 1;
  EXPECT_THROW((void)workloads::make_cholesky_trace(cfg),
               std::invalid_argument);
  cfg.tiles = 4;
  cfg.gflops_per_core = 0.0;
  EXPECT_THROW((void)workloads::make_lu_trace(cfg), std::invalid_argument);
  cfg.gflops_per_core = 2.0;
  cfg.tile_stride = 1;  // smaller than a tile: aliasing
  EXPECT_THROW((void)workloads::make_cholesky_trace(cfg),
               std::invalid_argument);
}

// --- Spatial decomposition ----------------------------------------------------

TEST(Spatial, TaskCountMatchesOccupancy) {
  workloads::SpatialConfig cfg;
  cfg.cells_x = 12;
  cfg.cells_y = 10;
  cfg.steps = 3;
  const auto occupied = workloads::spatial_occupied_cells(cfg);
  EXPECT_GT(occupied, 0u);
  EXPECT_LT(occupied, 120u);
  const auto tasks = workloads::make_spatial_trace(cfg);
  EXPECT_EQ(tasks->size(), occupied * cfg.steps);
  EXPECT_EQ(tasks->size(), workloads::spatial_task_count(cfg));
}

TEST(Spatial, FillExtremes) {
  workloads::SpatialConfig cfg;
  cfg.fill = 0.0;
  EXPECT_EQ(workloads::spatial_occupied_cells(cfg), 0u);
  cfg.fill = 1.0;
  EXPECT_EQ(workloads::spatial_occupied_cells(cfg),
            static_cast<std::uint64_t>(cfg.cells_x) * cfg.cells_y);
}

TEST(Spatial, IrregularDegreeAndDeterminism) {
  workloads::SpatialConfig cfg;
  cfg.fill = 0.5;
  const auto tasks = workloads::make_spatial_trace(cfg);
  EXPECT_EQ(*tasks, *workloads::make_spatial_trace(cfg));

  // Irregular occupancy must yield varying parameter counts (1 inout +
  // 0..8 neighbour reads).
  std::set<std::size_t> degrees;
  for (const auto& t : *tasks) {
    ASSERT_GE(t.params.size(), 1u);
    ASSERT_LE(t.params.size(), 9u);
    EXPECT_EQ(t.params.back().mode, core::AccessMode::kInOut);
    degrees.insert(t.params.size());
  }
  EXPECT_GT(degrees.size(), 2u) << "degree distribution suspiciously flat";
}

TEST(Spatial, HaloKnobControlsPartialOverlaps) {
  workloads::SpatialConfig aligned;
  const auto aligned_summary =
      trace::summarize(*workloads::make_spatial_trace(aligned));
  EXPECT_EQ(aligned_summary.partially_overlapping_bases, 0u);

  workloads::SpatialConfig halo = aligned;
  halo.halo_bytes = 64;
  const auto halo_summary =
      trace::summarize(*workloads::make_spatial_trace(halo));
  EXPECT_GT(halo_summary.partially_overlapping_bases, 0u);
}

TEST(Spatial, ValidatesConfig) {
  workloads::SpatialConfig cfg;
  cfg.halo_bytes = cfg.cell_bytes;
  EXPECT_THROW((void)workloads::make_spatial_trace(cfg),
               std::invalid_argument);
  cfg = {};
  cfg.fill = 1.5;
  EXPECT_THROW((void)workloads::spatial_occupied_cells(cfg),
               std::invalid_argument);
}

// --- End-to-end: the engines complete the application DAGs --------------------

TEST(ApplicationWorkloads, EnginesCompleteThem) {
  const auto& lib = WorkloadLibrary::builtins();
  const auto& registry = engine::EngineRegistry::builtins();
  engine::EngineParams params;
  params.num_workers = 8;
  for (const char* spec :
       {"tiled-cholesky:tiles=4,tile-elems=16", "tiled-lu:tiles=4,tile-elems=16",
        "spatial:cells-x=6,cells-y=6,steps=2"}) {
    for (const char* engine_name : {"nexus++", "software-rts"}) {
      const auto eng = registry.make(engine_name, params);
      const auto report = eng->run(lib.make_stream(spec));
      EXPECT_FALSE(report.deadlocked)
          << spec << " on " << engine_name << ": " << report.diagnosis;
      EXPECT_EQ(report.tasks_completed, report.tasks_expected)
          << spec << " on " << engine_name;
      EXPECT_GT(report.makespan, 0) << spec << " on " << engine_name;
    }
  }
}

}  // namespace
}  // namespace nexuspp
