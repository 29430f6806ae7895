#include "engine/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "obs/trace_export.hpp"
#include "trace/io.hpp"

namespace nexuspp::engine {

// --- SweepSpec ----------------------------------------------------------------

SweepSpec& SweepSpec::workload(std::string name, StreamFactory factory) {
  if (!factory) {
    throw std::invalid_argument("SweepSpec: null stream factory for '" +
                                name + "'");
  }
  for (auto& w : workloads_) {
    if (w.name == name) {
      w.factory = std::move(factory);
      return *this;
    }
  }
  workloads_.push_back({std::move(name), std::move(factory)});
  return *this;
}

SweepSpec& SweepSpec::workload_from_trace(std::string name,
                                          const std::string& path) {
  auto tasks = std::make_shared<const std::vector<trace::TaskRecord>>(
      trace::load_trace(path).tasks);
  return workload(std::move(name), [tasks] {
    return std::make_unique<trace::VectorStream>(tasks);
  });
}

SweepSpec& SweepSpec::point(PointSpec p) {
  points_.push_back(std::move(p));
  return *this;
}

SweepSpec& SweepSpec::grid(const std::vector<std::string>& engines,
                           const std::vector<std::string>& workload_names,
                           const std::vector<EngineParams>& params) {
  for (const auto& engine : engines) {
    for (const auto& workload : workload_names) {
      bool first = true;
      for (const auto& p : params) {
        PointSpec point;
        point.engine = engine;
        point.workload = workload;
        point.params = p;
        point.baseline = first;
        first = false;
        points_.push_back(std::move(point));
      }
    }
  }
  return *this;
}

const StreamFactory& SweepSpec::factory_for(
    const std::string& workload) const {
  for (const auto& w : workloads_) {
    if (w.name == workload) return w.factory;
  }
  throw std::out_of_range("SweepSpec: unknown workload '" + workload + "'");
}

// --- SweepDriver --------------------------------------------------------------

SweepDriver::SweepDriver(const EngineRegistry& registry, SweepOptions options)
    : registry_(&registry), options_(options) {}

std::vector<SweepResult> SweepDriver::run(const SweepSpec& spec) {
  const auto& points = spec.points();
  std::vector<SweepResult> results(points.size());
  if (points.empty()) {
    last_wall_seconds_ = 0.0;
    last_threads_used_ = 0;
    return results;
  }
  // Fail fast on spec errors before spawning anything.
  for (const auto& p : points) {
    (void)spec.factory_for(p.workload);
    if (!registry_->contains(p.engine)) {
      (void)registry_->make(p.engine, p.params);  // throws with known names
    }
  }

  unsigned threads = options_.threads != 0
                         ? options_.threads
                         : std::max(4u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, points.size()));

  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      const PointSpec& point = points[i];
      SweepResult& out = results[i];
      out.spec = point;

      const auto t0 = std::chrono::steady_clock::now();
      try {
        const auto engine = registry_->make(point.engine, point.params);
        out.report = engine->run(spec.factory_for(point.workload)());
      } catch (const std::exception& e) {
        // Infrastructure failure, not a diagnosed deadlock: route it
        // through the error column so the CI gates can tell the two apart.
        out.report = RunReport{};
        out.report.engine = point.engine;
        out.error = std::string("exception: ") + e.what();
      }
      out.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
  };

  const auto sweep_start = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  last_wall_seconds_ = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - sweep_start)
                           .count();
  last_threads_used_ = threads;

  // Speedups: baseline of a series is its flagged point, else its first
  // point in spec order.
  std::unordered_map<std::string, std::size_t> baselines;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string series = points[i].resolved_series();
    auto [it, inserted] = baselines.try_emplace(series, i);
    if (!inserted && points[i].baseline && !points[it->second].baseline) {
      it->second = i;
    }
  }
  for (auto& r : results) {
    const SweepResult& base = results[baselines.at(r.spec.resolved_series())];
    if (!base.failed() && !r.failed()) {
      r.speedup = r.report.speedup_vs(base.report);
    }
  }
  return results;
}

// --- METG ---------------------------------------------------------------------

double run_efficiency(const RunReport& report) noexcept {
  const double makespan_ns = sim::to_ns(report.makespan);
  if (makespan_ns <= 0.0 || report.num_workers == 0) return 0.0;
  return sim::to_ns(report.total_exec_time) /
         (makespan_ns * static_cast<double>(report.num_workers));
}

double metg_from_samples(std::vector<MetgSample> samples,
                         double efficiency_floor) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const MetgSample& a, const MetgSample& b) {
                     return a.task_ns > b.task_ns;
                   });
  samples.erase(std::unique(samples.begin(), samples.end(),
                            [](const MetgSample& a, const MetgSample& b) {
                              return a.task_ns == b.task_ns;
                            }),
                samples.end());
  if (samples.empty()) return 0.0;
  if (samples.front().efficiency < efficiency_floor) {
    return 0.0;  // never effective, even at the coarsest granularity
  }
  std::size_t below = samples.size();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].efficiency < efficiency_floor) {
      below = i;
      break;
    }
  }
  if (below == samples.size()) {
    // Never dropped under the floor: the finest sampled granularity is
    // still effective (a lower bound on the true METG).
    return static_cast<double>(samples.back().task_ns);
  }
  // Log-interpolate the crossing between the last at/above-floor rung and
  // the first below-floor rung: granularity ladders are geometric, so the
  // curve is closer to linear in log(task_ns) than in task_ns.
  const MetgSample& hi = samples[below - 1];
  const MetgSample& lo = samples[below];
  if (hi.efficiency == efficiency_floor) {
    return static_cast<double>(hi.task_ns);
  }
  const double t = (efficiency_floor - lo.efficiency) /
                   (hi.efficiency - lo.efficiency);
  const double log_lo = std::log(static_cast<double>(lo.task_ns));
  const double log_hi = std::log(static_cast<double>(hi.task_ns));
  return std::exp(log_lo + t * (log_hi - log_lo));
}

MetgResult SweepDriver::run_metg(const MetgSpec& spec) {
  constexpr double kMetgEfficiencyFloor = 0.5;  // task-bench's 50 %
  MetgResult result;
  if (!spec.workload_at) {
    result.error = "run_metg: null workload_at factory";
    return result;
  }
  if (spec.start_task_ns == 0) {
    result.error = "run_metg: start_task_ns must be >= 1";
    return result;
  }
  std::size_t last_effective = static_cast<std::size_t>(-1);
  for (std::uint64_t g = spec.start_task_ns;; g /= 2) {
    SweepSpec rung;
    rung.workload(spec.workload, spec.workload_at(g));
    PointSpec point;
    point.engine = spec.engine;
    point.workload = spec.workload;
    point.params = spec.params;
    point.series = spec.series.empty()
                       ? spec.engine + "/" + spec.workload
                       : spec.series;
    point.label = spec.params.label() + " task_ns=" + std::to_string(g);
    rung.point(std::move(point));
    auto rung_results = run(rung);
    SweepResult& r = rung_results.front();

    if (r.failed()) {
      result.error = !r.error.empty() ? r.error : r.report.diagnosis;
      result.runs.push_back(std::move(r));
      break;
    }
    const double eff = run_efficiency(r.report);
    result.samples.push_back({g, eff});
    const bool effective = eff >= kMetgEfficiencyFloor;
    if (effective) last_effective = result.runs.size();
    result.runs.push_back(std::move(r));
    // One below-floor rung is enough to interpolate the crossing; keep
    // descending only while the engine stays effective.
    if (!effective || g / 2 < spec.min_task_ns || g == 1) break;
  }
  result.metg_ns = metg_from_samples(result.samples, kMetgEfficiencyFloor);
  if (result.metg_ns > 0.0 &&
      last_effective != static_cast<std::size_t>(-1)) {
    // First-class reporting: the crossing rung's report carries the METG
    // into the standard CSV/JSON schema.
    result.runs[last_effective].report.metg_ns = result.metg_ns;
  }
  return result;
}

// --- Emission -----------------------------------------------------------------

namespace {

std::vector<std::size_t> sorted_order(const std::vector<SweepResult>& results) {
  std::vector<std::size_t> order(results.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return results[a].spec.resolved_series() <
                            results[b].spec.resolved_series();
                   });
  return order;
}

/// The point columns that precede the report's in every CSV and JSON row.
struct PointColumn {
  const char* name;
  bool text;  ///< quoted in JSON; else a bare number
  std::string (*cell)(const SweepResult&);
};

const PointColumn kPointColumns[] = {
    {"series", true,
     [](const SweepResult& r) { return r.spec.resolved_series(); }},
    {"label", true,
     [](const SweepResult& r) { return r.spec.resolved_label(); }},
    {"workload", true, [](const SweepResult& r) { return r.spec.workload; }},
    {"speedup", false,
     [](const SweepResult& r) { return util::fmt_f(r.speedup, 3); }},
    {"wall_seconds", false,
     [](const SweepResult& r) { return util::fmt_f(r.wall_seconds, 4); }},
    // A failed point carries its failure into the machine-readable
    // outputs: an exception here with `deadlocked` left 0, or a diagnosed
    // deadlock (`deadlocked`=1), so the two stay distinguishable row by row.
    {"error", true,
     [](const SweepResult& r) {
       return !r.error.empty()
                  ? r.error
                  : (r.report.deadlocked ? r.report.diagnosis : std::string());
     }},
};

/// The table's status cell: "ok", or the first 48 characters of why a
/// point failed; a completed run that carries a diagnosis (a miscounted
/// stream) reads "ok: " and the diagnosis, not as a failure.
std::string status(const SweepResult& r) {
  if (!r.error.empty()) return "ERROR: " + r.error.substr(0, 48);
  const std::string& why = r.report.diagnosis;
  if (r.report.deadlocked) return "FAIL: " + why.substr(0, 48);
  return why.empty() ? "ok" : "ok: " + why.substr(0, 48);
}

}  // namespace

util::Table SweepDriver::to_table(const std::string& title,
                                  const std::vector<SweepResult>& results,
                                  const std::vector<Column>& extra) {
  util::Table t(title);
  std::vector<std::string> header{"series", "label",   "engine",
                                  "makespan", "speedup", "core util",
                                  "status"};
  for (const auto& col : extra) header.push_back(col.header);
  t.header(header);
  for (const auto& r : results) {
    std::vector<std::string> row{
        r.spec.resolved_series(),
        r.spec.resolved_label(),
        r.report.engine,
        util::fmt_ns(sim::to_ns(r.report.makespan)),
        r.speedup > 0.0 ? util::fmt_x(r.speedup) : "-",
        util::fmt_f(100.0 * r.report.avg_core_utilization, 1) + "%",
        status(r)};
    for (const auto& col : extra) row.push_back(col.cell(r));
    t.row(row);
  }
  return t;
}

void SweepDriver::write_csv(const std::vector<SweepResult>& results,
                            std::ostream& os) {
  util::Table t("sweep");
  std::vector<std::string> header;
  for (const auto& c : kPointColumns) header.emplace_back(c.name);
  const auto report_header = RunReport::csv_header();
  header.insert(header.end(), report_header.begin(), report_header.end());
  t.header(header);
  for (const std::size_t i : sorted_order(results)) {
    std::vector<std::string> row;
    for (const auto& c : kPointColumns) row.push_back(c.cell(results[i]));
    const auto report_row = results[i].report.csv_row();
    row.insert(row.end(), report_row.begin(), report_row.end());
    t.row(row);
  }
  os << t.to_csv();
}

std::string SweepDriver::to_json(const SweepResult& result) {
  std::ostringstream os;
  os << "{";
  for (const auto& c : kPointColumns) {
    obs::write_json_string(os, c.name);
    os << ": ";
    if (c.text) {
      obs::write_json_string(os, c.cell(result));
    } else {
      os << c.cell(result);
    }
    os << ", ";
  }
  result.report.write_json_members(os);
  os << "}";
  return os.str();
}

void SweepDriver::write_json(const std::vector<SweepResult>& results,
                             std::ostream& os) {
  os << "[";
  const char* sep = "\n  ";
  for (const std::size_t i : sorted_order(results)) {
    os << sep << to_json(results[i]);
    sep = ",\n  ";
  }
  os << "\n]\n";
}

std::vector<std::string> SweepDriver::export_timelines(
    const std::vector<SweepResult>& results, const std::string& path) {
  std::vector<std::size_t> with_timeline;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].report.timeline.data != nullptr) with_timeline.push_back(i);
  }
  std::vector<std::string> written;
  if (with_timeline.empty()) return written;

  const std::size_t dot = path.rfind('.');
  const bool has_ext = dot != std::string::npos && dot != 0 &&
                       path.find('/', dot) == std::string::npos;
  const std::string stem = has_ext ? path.substr(0, dot) : path;
  const std::string ext = has_ext ? path.substr(dot) : std::string(".json");

  for (const std::size_t i : with_timeline) {
    const std::string out_path =
        with_timeline.size() == 1
            ? path
            : stem + ".p" + std::to_string(i) + ext;
    obs::TraceExportOptions options;
    options.pid = static_cast<std::uint32_t>(i + 1);
    options.report_json = to_json(results[i]);
    if (!obs::save_chrome_trace(*results[i].report.timeline.data, out_path,
                                options)) {
      throw std::runtime_error("cannot write timeline " + out_path);
    }
    written.push_back(out_path);
  }
  return written;
}

std::vector<SweepResult> run_sweep(const SweepSpec& spec,
                                   SweepOptions options) {
  SweepDriver driver(EngineRegistry::builtins(), options);
  return driver.run(spec);
}

}  // namespace nexuspp::engine
