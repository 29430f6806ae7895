#pragma once
// Unified metrics registry.
//
// The repo's telemetry grew up scattered: table statistics on the exec
// resolver, BankUsage on the banked tables, stage busy/stall pairs on the
// simulated systems, hazard counters on the dependence table. Each report
// consumer (table printer, CSV writer, JSON writer, trace exporter) had to
// know every struct. MetricsRegistry is the meeting point: producers
// register named counters / gauges / histograms once, consumers iterate a
// sorted snapshot. RunReport::register_metrics() adapts the existing
// telemetry into a registry so timelines and future sinks get the full
// picture without new plumbing.
//
// This is an end-of-run aggregation surface, not a hot-path one: values are
// registered after execution finishes, so plain (non-atomic) storage is
// deliberate.

#include <cstdint>
#include <string>
#include <vector>

namespace nexuspp::obs {

enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotone event count (hazards, table lookups)
  kGauge,      ///< point-in-time or averaged level (utilization, depth)
  kHistogram,  ///< distribution summary: count/sum plus quantile samples
};

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

/// One named metric. Counters use `value`; gauges use `value`; histograms
/// use `count`/`sum` plus (quantile, value) samples such as p50/p95/p99.
struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  std::vector<std::pair<double, double>> quantiles;  ///< (q in [0,1], value)
};

class MetricsRegistry {
 public:
  /// Set-or-update by name: registering an existing name overwrites it, so
  /// producers can re-register without duplicate entries.
  void counter(const std::string& name, double value);
  void gauge(const std::string& name, double value);
  void histogram(const std::string& name, std::uint64_t count, double sum,
                 std::vector<std::pair<double, double>> quantiles);

  [[nodiscard]] std::size_t size() const noexcept { return metrics_.size(); }

  /// True if `name` is registered; `value_or` reads its scalar value.
  [[nodiscard]] bool has(const std::string& name) const noexcept;
  [[nodiscard]] double value_or(const std::string& name,
                                double fallback) const noexcept;

  /// Name-sorted copy of all metrics.
  [[nodiscard]] std::vector<Metric> snapshot() const;

 private:
  Metric& upsert(const std::string& name, MetricKind kind);

  std::vector<Metric> metrics_;
};

}  // namespace nexuspp::obs
