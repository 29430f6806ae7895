#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "bench.hpp"

namespace perfbench {

void Outcome::add(const std::string& name, const std::vector<double>& values,
                  const std::string& unit) {
  if (values.empty()) return;
  add_value(name, median(values), unit, values.size());
}

void Outcome::add_value(const std::string& name, double value,
                        const std::string& unit, std::size_t samples) {
  metrics.push_back(Metric{name, value, unit, samples});
}

void Outcome::rep(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(problem);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<nexuspp::engine::MetgSample> rung_medians(
    const std::vector<Rung>& rungs) {
  std::vector<nexuspp::engine::MetgSample> out;
  out.reserve(rungs.size());
  for (const Rung& rung : rungs) {
    out.push_back({rung.task_ns, median(rung.efficiency)});
  }
  return out;
}

double metg_ns(const std::vector<Rung>& rungs) {
  return nexuspp::engine::metg_from_samples(rung_medians(rungs), kMetgFloor);
}

// --- SpanLog ------------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog& log, std::string name, std::uint64_t rep)
    : log_(log) {
  if (!log_.enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start_ns = log_.now_ns();
  span.parent = log_.open_.empty() ? -1 : log_.open_.back();
  span.rep = rep;
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(std::move(span));
  log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = log_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = log_.now_ns();
  span.busy_ns = span.end_ns - span.start_ns;
  log_.open_.pop_back();
}

void SpanLog::add_calls(std::string name, std::uint64_t rep,
                        std::uint64_t calls, double start_ns, double end_ns,
                        double busy_ns) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.rep = rep;
  span.calls = calls;
  span.busy_ns = busy_ns;
  spans_.push_back(std::move(span));
}

double SpanLog::self_ns(std::size_t index) const {
  double children = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == static_cast<int>(index)) children += span.busy_ns;
  }
  return spans_[index].busy_ns - children;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::setprecision(17) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"rep\": " << s.rep
        << ", \"calls\": " << s.calls << ", \"busy_ns\": " << s.busy_ns
        << ", \"self_ns\": " << self_ns(i) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- Host ---------------------------------------------------------------------

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTimes t;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // included in user/nice).
  for (int field = 0; field < 8; ++field) {
    double ticks = 0.0;
    if (!(in >> ticks)) return CpuTimes{};
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

double steal_share(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

}  // namespace perfbench
