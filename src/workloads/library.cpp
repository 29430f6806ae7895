#include "workloads/library.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

#include "workloads/factorization.hpp"
#include "workloads/gaussian.hpp"
#include "workloads/grid.hpp"
#include "workloads/overlap.hpp"
#include "workloads/pattern.hpp"
#include "workloads/random_dag.hpp"
#include "workloads/spatial.hpp"
#include "workloads/wide.hpp"

namespace nexuspp::workloads {

namespace {

/// Digits only: no sign, no space, nothing after them.
std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("workload option '" + key +
                                "': expected a non-negative integer, got '" +
                                value + "'");
  }
  return v;
}

double parse_real(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument("trailing junk");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("workload option '" + key +
                                "': expected a number, got '" + value + "'");
  }
}

}  // namespace

OptionMap::OptionMap(std::vector<std::pair<std::string, std::string>> entries)
    : entries_(std::move(entries)), used_(entries_.size(), false) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    for (std::size_t j = i + 1; j < entries_.size(); ++j) {
      if (entries_[i].first == entries_[j].first) {
        throw std::invalid_argument("duplicate workload option '" +
                                    entries_[i].first + "'");
      }
    }
  }
}

const std::string* OptionMap::find(const std::string& key) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) {
      used_[i] = true;
      return &entries_[i].second;
    }
  }
  return nullptr;
}

std::uint32_t OptionMap::u32(const std::string& key, std::uint32_t fallback) {
  const auto* v = find(key);
  if (v == nullptr) return fallback;
  const auto wide = parse_u64(key, *v);
  if (wide > 0xFFFF'FFFFull) {
    throw std::invalid_argument("workload option '" + key +
                                "': value does not fit 32 bits");
  }
  return static_cast<std::uint32_t>(wide);
}

std::uint64_t OptionMap::u64(const std::string& key, std::uint64_t fallback) {
  const auto* v = find(key);
  return v == nullptr ? fallback : parse_u64(key, *v);
}

double OptionMap::real(const std::string& key, double fallback) {
  const auto* v = find(key);
  return v == nullptr ? fallback : parse_real(key, *v);
}

std::string OptionMap::str(const std::string& key, std::string fallback) {
  const auto* v = find(key);
  return v == nullptr ? std::move(fallback) : *v;
}

void OptionMap::finish() const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!used_[i]) {
      throw std::invalid_argument("unknown workload option '" +
                                  entries_[i].first +
                                  "' (run with --list-workloads to see each "
                                  "workload's options)");
    }
  }
}

std::pair<std::string, std::vector<std::pair<std::string, std::string>>>
parse_workload_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  std::string name = spec.substr(0, colon);
  if (name.empty()) {
    throw std::invalid_argument("workload spec: empty name in '" + spec +
                                "'");
  }
  std::vector<std::pair<std::string, std::string>> options;
  if (colon == std::string::npos) return {std::move(name), std::move(options)};

  std::string rest = spec.substr(colon + 1);
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    const auto comma = rest.find(',', pos);
    const std::string item =
        rest.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("workload spec: expected key=value, got '" +
                                  item + "' in '" + spec + "'");
    }
    options.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return {std::move(name), std::move(options)};
}

void WorkloadLibrary::add(WorkloadEntry entry) {
  entries_.push_back(std::move(entry));
}

std::vector<std::string> WorkloadLibrary::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

bool WorkloadLibrary::contains(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

const WorkloadEntry& WorkloadLibrary::resolve(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e;
  }
  std::string known;
  for (const auto& e : entries_) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (registered: " + known + ")");
}

const WorkloadEntry& WorkloadLibrary::info(const std::string& name) const {
  return resolve(name);
}

std::shared_ptr<const std::vector<trace::TaskRecord>>
WorkloadLibrary::make_trace(const std::string& spec) const {
  auto [name, options] = parse_workload_spec(spec);
  const auto& entry = resolve(name);
  OptionMap opts(std::move(options));
  auto trace = entry.build_trace(opts);
  opts.finish();
  return trace;
}

std::unique_ptr<trace::TaskStream> WorkloadLibrary::make_stream(
    const std::string& spec) const {
  auto [name, options] = parse_workload_spec(spec);
  const auto& entry = resolve(name);
  OptionMap opts(std::move(options));
  auto stream = entry.build_stream
                    ? entry.build_stream(opts)
                    : std::make_unique<trace::VectorStream>(
                          entry.build_trace(opts));
  opts.finish();
  return stream;
}

std::function<std::unique_ptr<trace::TaskStream>()>
WorkloadLibrary::make_stream_factory(const std::string& spec) const {
  auto [name, options] = parse_workload_spec(spec);
  const auto& entry = resolve(name);
  if (entry.build_stream) {
    // Lazy generator: validate the options once, then build an
    // independent stream per call. The builder is captured by value so the
    // factory stays valid independent of this library's lifetime.
    auto build = entry.build_stream;
    {
      OptionMap probe(options);
      (void)build(probe);
      probe.finish();
    }
    return [build, options] {
      OptionMap opts(options);
      return build(opts);
    };
  }
  // Eager generator: materialize once, share across sweep threads.
  OptionMap opts(std::move(options));
  auto trace = entry.build_trace(opts);
  opts.finish();
  return [trace] { return std::make_unique<trace::VectorStream>(trace); };
}

namespace {

GridConfig grid_config(OptionMap& o, GridPattern pattern) {
  GridConfig cfg;
  cfg.pattern = pattern;
  cfg.rows = o.u32("rows", cfg.rows);
  cfg.cols = o.u32("cols", cfg.cols);
  cfg.seed = o.u64("seed", cfg.seed);
  return cfg;
}

WorkloadEntry grid_entry(std::string name, std::string summary,
                         GridPattern pattern) {
  WorkloadEntry e;
  e.name = std::move(name);
  e.summary = std::move(summary);
  e.options = "rows=120,cols=68,seed=42";
  e.build_trace = [pattern](OptionMap& o) {
    return make_grid_trace(grid_config(o, pattern));
  };
  return e;
}

FactorizationConfig factorization_config(OptionMap& o) {
  FactorizationConfig cfg;
  cfg.tiles = o.u32("tiles", cfg.tiles);
  cfg.tile_elems = o.u32("tile-elems", cfg.tile_elems);
  cfg.gflops_per_core = o.real("gflops", cfg.gflops_per_core);
  return cfg;
}

WorkloadLibrary build_builtins() {
  WorkloadLibrary lib;

  lib.add(grid_entry("h264",
                     "H.264 macroblock wavefront decode (paper Fig. 4a)",
                     GridPattern::kWavefront));
  lib.add(grid_entry("horizontal", "left-neighbour chains (paper Fig. 4b)",
                     GridPattern::kHorizontal));
  lib.add(grid_entry("vertical", "up-neighbour chains (paper Fig. 4c)",
                     GridPattern::kVertical));
  lib.add(grid_entry("independent", "no shared addresses: scaling ceiling",
                     GridPattern::kIndependent));

  {
    WorkloadEntry e;
    e.name = "gaussian";
    e.summary = "Gaussian elimination DAG (paper Table II); lazy stream";
    e.options = "n=250,gflops=2.0";
    auto config = [](OptionMap& o) {
      GaussianConfig cfg;
      cfg.n = o.u32("n", cfg.n);
      cfg.gflops_per_core = o.real("gflops", cfg.gflops_per_core);
      return cfg;
    };
    e.build_trace = [config](OptionMap& o) {
      auto stream = make_gaussian_stream(config(o));
      auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
      tasks->reserve(stream->total_tasks());
      while (auto rec = stream->next()) tasks->push_back(std::move(*rec));
      return std::shared_ptr<const std::vector<trace::TaskRecord>>(tasks);
    };
    e.build_stream = [config](OptionMap& o) -> std::unique_ptr<trace::TaskStream> {
      return make_gaussian_stream(config(o));
    };
    lib.add(std::move(e));
  }

  {
    WorkloadEntry e;
    e.name = "tiled-cholesky";
    e.summary = "tiled Cholesky factorization DAG (POTRF/TRSM/SYRK/GEMM)";
    e.options = "tiles=8,tile-elems=64,gflops=2.0";
    e.build_trace = [](OptionMap& o) {
      return make_cholesky_trace(factorization_config(o));
    };
    lib.add(std::move(e));
  }
  {
    WorkloadEntry e;
    e.name = "tiled-lu";
    e.summary = "tiled LU factorization DAG (GETRF/TRSM/GEMM)";
    e.options = "tiles=8,tile-elems=64,gflops=2.0";
    e.build_trace = [](OptionMap& o) {
      return make_lu_trace(factorization_config(o));
    };
    lib.add(std::move(e));
  }
  {
    WorkloadEntry e;
    e.name = "spatial";
    e.summary =
        "sparse spatial decomposition: irregular Moore-neighbour reads";
    e.options =
        "cells-x=16,cells-y=16,steps=4,fill=0.6,cell-bytes=512,"
        "halo-bytes=0,seed=42";
    e.build_trace = [](OptionMap& o) {
      SpatialConfig cfg;
      cfg.cells_x = o.u32("cells-x", cfg.cells_x);
      cfg.cells_y = o.u32("cells-y", cfg.cells_y);
      cfg.steps = o.u32("steps", cfg.steps);
      cfg.fill = o.real("fill", cfg.fill);
      cfg.cell_bytes = o.u32("cell-bytes", cfg.cell_bytes);
      cfg.halo_bytes = o.u32("halo-bytes", cfg.halo_bytes);
      cfg.seed = o.u64("seed", cfg.seed);
      return make_spatial_trace(cfg);
    };
    lib.add(std::move(e));
  }
  {
    WorkloadEntry e;
    e.name = "halo-stencil";
    e.summary = "1D blocked stencil with halo reads (partial overlaps)";
    e.options = "blocks=64,steps=8,block-bytes=1024,halo-bytes=64,seed=42";
    e.build_trace = [](OptionMap& o) {
      HaloStencilConfig cfg;
      cfg.blocks = o.u32("blocks", cfg.blocks);
      cfg.steps = o.u32("steps", cfg.steps);
      cfg.block_bytes = o.u32("block-bytes", cfg.block_bytes);
      cfg.halo_bytes = o.u32("halo-bytes", cfg.halo_bytes);
      cfg.seed = o.u64("seed", cfg.seed);
      return make_halo_stencil_trace(cfg);
    };
    lib.add(std::move(e));
  }
  {
    WorkloadEntry e;
    e.name = "mixed-tiles";
    e.summary = "whole-tile producers, staggered sub-block consumers";
    e.options = "tiles=32,rounds=4,tile-bytes=4096,sub-blocks=4,seed=42";
    e.build_trace = [](OptionMap& o) {
      MixedTilesConfig cfg;
      cfg.tiles = o.u32("tiles", cfg.tiles);
      cfg.rounds = o.u32("rounds", cfg.rounds);
      cfg.tile_bytes = o.u32("tile-bytes", cfg.tile_bytes);
      cfg.sub_blocks = o.u32("sub-blocks", cfg.sub_blocks);
      cfg.seed = o.u64("seed", cfg.seed);
      return make_mixed_tiles_trace(cfg);
    };
    lib.add(std::move(e));
  }
  {
    WorkloadEntry e;
    e.name = "wide";
    e.summary = "wide-task chains stressing dummy-task descriptors";
    e.options = "lanes=8,chain=64,width=12,seed=7";
    e.build_trace = [](OptionMap& o) {
      WideConfig cfg;
      cfg.lanes = o.u32("lanes", cfg.lanes);
      cfg.chain_length = o.u32("chain", cfg.chain_length);
      cfg.width = o.u32("width", cfg.width);
      cfg.seed = o.u64("seed", cfg.seed);
      return make_wide_trace(cfg);
    };
    lib.add(std::move(e));
  }
  {
    WorkloadEntry e;
    e.name = "pattern";
    e.summary =
        "task-bench timestep grid: 9 dependence patterns over width x steps";
    e.options =
        "kind=stencil1d,width=16,steps=8,radius=2,fraction=0.5,"
        "task-ns=5000,point-bytes=64,seed=42";
    e.build_trace = [](OptionMap& o) {
      PatternConfig cfg;
      cfg.kind = pattern_kind_from_string(
          o.str("kind", to_string(cfg.kind)));
      cfg.width = o.u32("width", cfg.width);
      cfg.steps = o.u32("steps", cfg.steps);
      cfg.radius = o.u32("radius", cfg.radius);
      cfg.fraction = o.real("fraction", cfg.fraction);
      cfg.task_ns = o.u64("task-ns", cfg.task_ns);
      cfg.point_bytes = o.u32("point-bytes", cfg.point_bytes);
      cfg.seed = o.u64("seed", cfg.seed);
      return make_pattern_trace(cfg);
    };
    lib.add(std::move(e));
  }
  {
    WorkloadEntry e;
    e.name = "random-dag";
    e.summary = "seeded random task graph over a bounded address pool";
    e.options = "tasks=1000,addrs=64,max-params=4,write-prob=0.35,seed=1";
    e.build_trace = [](OptionMap& o) {
      RandomDagConfig cfg;
      cfg.num_tasks = o.u32("tasks", cfg.num_tasks);
      cfg.addr_space = o.u32("addrs", cfg.addr_space);
      cfg.max_params = o.u32("max-params", cfg.max_params);
      cfg.write_prob = o.real("write-prob", cfg.write_prob);
      cfg.seed = o.u64("seed", cfg.seed);
      return make_random_dag_trace(cfg);
    };
    lib.add(std::move(e));
  }

  return lib;
}

}  // namespace

const WorkloadLibrary& WorkloadLibrary::builtins() {
  static const WorkloadLibrary instance = build_builtins();
  return instance;
}

}  // namespace nexuspp::workloads
