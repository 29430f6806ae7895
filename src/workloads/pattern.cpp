#include "workloads/pattern.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace nexuspp::workloads {

namespace {

/// Smallest s with 2^s >= w (0 for w <= 1): the FFT stage count.
std::uint32_t ceil_log2(std::uint32_t w) noexcept {
  std::uint32_t s = 0;
  std::uint32_t reach = 1;
  while (reach < w) {
    reach *= 2;
    ++s;
  }
  return s;
}

/// Uniform [0, 1) draw keyed by (seed, t, p, q) — the RANDOM_NEAREST
/// membership test. Chained SplitMix64 steps so every coordinate fully
/// avalanches; the structural-oracle test reimplements this verbatim.
double membership_draw(std::uint64_t seed, std::uint32_t t, std::uint32_t p,
                       std::uint32_t q) noexcept {
  constexpr std::uint64_t kPhi = 0x9E3779B97F4A7C15ull;
  std::uint64_t h = seed;
  h = util::SplitMix64(h ^ (kPhi * (static_cast<std::uint64_t>(t) + 1))).next();
  h = util::SplitMix64(h ^ (kPhi * (static_cast<std::uint64_t>(p) + 1))).next();
  h = util::SplitMix64(h ^ (kPhi * (static_cast<std::uint64_t>(q) + 1))).next();
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void push_clamped(std::vector<std::uint32_t>& out, std::int64_t q,
                  std::uint32_t width) {
  if (q >= 0 && q < static_cast<std::int64_t>(width)) {
    out.push_back(static_cast<std::uint32_t>(q));
  }
}

}  // namespace

const std::vector<PatternKind>& all_pattern_kinds() {
  static const std::vector<PatternKind> kinds = {
      PatternKind::kStencil1D, PatternKind::kStencil1DPeriodic,
      PatternKind::kTree,      PatternKind::kFft,
      PatternKind::kDom,       PatternKind::kAllToAll,
      PatternKind::kNearest,   PatternKind::kRandomNearest,
      PatternKind::kSpread,
  };
  return kinds;
}

const char* to_string(PatternKind kind) noexcept {
  switch (kind) {
    case PatternKind::kStencil1D: return "stencil1d";
    case PatternKind::kStencil1DPeriodic: return "stencil1d-periodic";
    case PatternKind::kTree: return "tree";
    case PatternKind::kFft: return "fft";
    case PatternKind::kDom: return "dom";
    case PatternKind::kAllToAll: return "all-to-all";
    case PatternKind::kNearest: return "nearest";
    case PatternKind::kRandomNearest: return "random-nearest";
    case PatternKind::kSpread: return "spread";
  }
  return "?";
}

PatternKind pattern_kind_from_string(const std::string& name) {
  for (const PatternKind kind : all_pattern_kinds()) {
    if (name == to_string(kind)) return kind;
  }
  std::string known;
  for (const PatternKind kind : all_pattern_kinds()) {
    if (!known.empty()) known += ", ";
    known += to_string(kind);
  }
  throw std::invalid_argument("unknown pattern kind '" + name +
                              "' (accepted: " + known + ")");
}

void PatternConfig::validate() const {
  if (width == 0) {
    throw std::invalid_argument("pattern workload: width must be >= 1");
  }
  if (steps == 0) {
    throw std::invalid_argument("pattern workload: steps must be >= 1");
  }
  if (point_bytes == 0) {
    throw std::invalid_argument("pattern workload: point-bytes must be >= 1");
  }
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument(
        "pattern workload: fraction must be in [0, 1]");
  }
}

core::Addr pattern_point_addr(const PatternConfig& cfg, std::uint32_t p,
                              std::uint32_t parity) noexcept {
  return cfg.base +
         (static_cast<core::Addr>(parity) * cfg.width + p) * cfg.point_bytes;
}

std::vector<std::uint32_t> pattern_deps(const PatternConfig& cfg,
                                        std::uint32_t t, std::uint32_t p) {
  std::vector<std::uint32_t> deps;
  if (t == 0) return deps;
  const std::uint32_t w = cfg.width;
  const std::int64_t sp = static_cast<std::int64_t>(p);

  switch (cfg.kind) {
    case PatternKind::kStencil1D:
      push_clamped(deps, sp - 1, w);
      deps.push_back(p);
      push_clamped(deps, sp + 1, w);
      break;
    case PatternKind::kStencil1DPeriodic:
      deps.push_back((p + w - 1) % w);
      deps.push_back(p);
      deps.push_back((p + 1) % w);
      break;
    case PatternKind::kTree:
      deps.push_back(p / 2);
      break;
    case PatternKind::kFft: {
      deps.push_back(p);
      const std::uint32_t stages = ceil_log2(w);
      if (stages > 0) {
        const std::uint32_t s = (t - 1) % stages;
        const std::uint32_t partner = p ^ (1u << s);
        if (partner < w) deps.push_back(partner);
      }
      break;
    }
    case PatternKind::kDom:
      push_clamped(deps, sp - 1, w);
      deps.push_back(p);
      break;
    case PatternKind::kAllToAll:
      deps.resize(w);
      for (std::uint32_t q = 0; q < w; ++q) deps[q] = q;
      break;
    case PatternKind::kNearest: {
      const std::int64_t lo = sp - cfg.radius;
      const std::int64_t hi = sp + cfg.radius;
      for (std::int64_t q = lo; q <= hi; ++q) push_clamped(deps, q, w);
      break;
    }
    case PatternKind::kRandomNearest: {
      const std::int64_t lo = sp - cfg.radius;
      const std::int64_t hi = sp + cfg.radius;
      for (std::int64_t q = lo; q <= hi; ++q) {
        if (q < 0 || q >= static_cast<std::int64_t>(w)) continue;
        const auto qu = static_cast<std::uint32_t>(q);
        // The self-dependence is unconditional (keeps every point's chain
        // connected); other window members pass the seeded coin flip.
        if (qu == p ||
            membership_draw(cfg.seed, t, p, qu) < cfg.fraction) {
          deps.push_back(qu);
        }
      }
      break;
    }
    case PatternKind::kSpread: {
      const std::uint32_t arms = std::max(1u, std::min(cfg.radius, w));
      const std::uint32_t stride = (w + arms - 1) / arms;  // ceil(w / arms)
      for (std::uint32_t i = 0; i < arms; ++i) {
        const std::uint64_t q =
            (static_cast<std::uint64_t>(p) +
             static_cast<std::uint64_t>(i) * stride + (t - 1)) %
            w;
        deps.push_back(static_cast<std::uint32_t>(q));
      }
      break;
    }
  }

  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  return deps;
}

std::uint64_t pattern_task_count(const PatternConfig& cfg) noexcept {
  return static_cast<std::uint64_t>(cfg.width) * cfg.steps;
}

std::shared_ptr<const std::vector<trace::TaskRecord>> make_pattern_trace(
    const PatternConfig& cfg) {
  cfg.validate();
  auto tasks = std::make_shared<std::vector<trace::TaskRecord>>();
  tasks->reserve(pattern_task_count(cfg));

  std::uint64_t serial = 0;
  for (std::uint32_t t = 0; t < cfg.steps; ++t) {
    const std::uint32_t write_parity = t & 1u;
    const std::uint32_t read_parity = write_parity ^ 1u;
    for (std::uint32_t p = 0; p < cfg.width; ++p, ++serial) {
      trace::TaskRecord rec;
      rec.serial = serial;
      rec.fn = 0x7A5CB;
      rec.exec_time = sim::ns(static_cast<std::int64_t>(cfg.task_ns));
      const auto deps = pattern_deps(cfg, t, p);
      rec.params.reserve(deps.size() + 1);
      for (const std::uint32_t q : deps) {
        rec.params.push_back(core::in(
            pattern_point_addr(cfg, q, read_parity), cfg.point_bytes));
      }
      rec.params.push_back(core::inout(
          pattern_point_addr(cfg, p, write_parity), cfg.point_bytes));
      rec.read_bytes =
          static_cast<std::uint64_t>(deps.size()) * cfg.point_bytes;
      rec.write_bytes = cfg.point_bytes;
      tasks->push_back(std::move(rec));
    }
  }
  return tasks;
}

}  // namespace nexuspp::workloads
