// Self-test of the benchmark's own logic: the statistics behind the
// reported medians and METG, and how --seed reaches each workload's inputs.
// perfbench/selftest.py runs it together with the end-to-end checks.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

/// A ladder from 65 536 ns down to 512 ns whose true efficiency is
/// g / (g + overhead_ns). Every rung gets five reps: the true value, two
/// 2 % deviations either side, and one rep that collapsed (a host
/// episode), which the median must ignore.
std::vector<perfbench::Rung> ladder(double overhead_ns) {
  std::vector<perfbench::Rung> rungs;
  for (std::uint64_t g = 65'536; g >= 512; g /= 2) {
    const double e = static_cast<double>(g) / (static_cast<double>(g) + overhead_ns);
    rungs.push_back({g, {e * 0.98, e, 0.46 * e, e * 1.02, e}});
  }
  return rungs;
}

/// Log-linear crossing of the floor between the rungs around it, written
/// out independently of engine::metg_from_samples.
double expected_metg(double overhead_ns) {
  double prev_g = 0.0, prev_e = 0.0;
  for (std::uint64_t g = 65'536; g >= 512; g /= 2) {
    const double gd = static_cast<double>(g);
    const double e = gd / (gd + overhead_ns);
    if (e < perfbench::kMetgFloor) {
      const double t = (perfbench::kMetgFloor - e) / (prev_e - e);
      return std::exp(std::log(gd) + t * (std::log(prev_g) - std::log(gd)));
    }
    prev_g = gd;
    prev_e = e;
  }
  return 512.0;
}

}  // namespace

int main() {
  using perfbench::median;
  using perfbench::percentile;

  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  expect(median({}) == 0.0, "median of nothing is 0");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 50.0) == 50.0, "p50 of 1..100");
  expect(percentile(hundred, 99.0) == 99.0, "p99 of 1..100");

  const auto rungs = ladder(4'000.0);
  const auto medians = perfbench::rung_medians(rungs);
  bool medians_ok = medians.size() == rungs.size();
  for (std::size_t i = 0; medians_ok && i < medians.size(); ++i) {
    const double g = static_cast<double>(rungs[i].task_ns);
    medians_ok = medians[i].task_ns == rungs[i].task_ns &&
                 near(medians[i].efficiency, g / (g + 4'000.0));
  }
  expect(medians_ok, "per-rung medians ignore a collapsed rep");
  expect(near(perfbench::metg_ns(rungs), expected_metg(4'000.0)),
         "METG interpolates the 50 % crossing (overhead 4 us)");
  expect(near(perfbench::metg_ns(ladder(300.0)), expected_metg(300.0)),
         "METG interpolates the 50 % crossing (overhead 300 ns)");
  expect(perfbench::metg_ns(ladder(100.0)) == 512.0,
         "METG is the finest rung when every rung stays effective");
  expect(perfbench::metg_ns(ladder(1e6)) == 0.0,
         "METG is 0 when even the coarsest rung is below the floor");

  for (const std::string& w : perfbench::workload_names()) {
    const std::uint64_t a = perfbench::input_digest(w, 1);
    const std::uint64_t again = perfbench::input_digest(w, 1);
    const std::uint64_t b = perfbench::input_digest(w, 2);
    expect(a == again, w + ": the same seed gives the same inputs");
    expect(a != b, w + ": another seed gives other inputs");
  }

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
