// Tests for the util library: RNG determinism and distributions, streaming
// statistics, table rendering, and flag parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace nexuspp {
namespace {

using util::Flags;
using util::Rng;
using util::RunningStats;
using util::Table;

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at step " << i;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 95);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowZeroBoundIsZero) {
  Rng rng(7);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, GammaMomentsApproximate) {
  // Gamma(k, theta): mean k*theta, variance k*theta^2.
  Rng rng(17);
  const double shape = 4.0;
  const double scale = 2.95;  // mean 11.8 — the H.264 task execution mean
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gamma(shape, scale));
  EXPECT_NEAR(stats.mean(), shape * scale, 0.1);
  EXPECT_NEAR(stats.variance(), shape * scale * scale, 0.7);
}

TEST(Rng, GammaShapeBelowOne) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.gamma(0.5, 1.0);
    ASSERT_GE(v, 0.0);
    stats.add(v);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
}

TEST(Rng, GammaRejectsBadArguments) {
  Rng rng(23);
  EXPECT_EQ(rng.gamma(0.0, 1.0), 0.0);
  EXPECT_EQ(rng.gamma(1.0, -1.0), 0.0);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(29);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    whole.add(v);
    (i % 2 == 0 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeMomentsExactBeyondReservoirCapacity) {
  // The moments path is Chan's parallel update — it must stay exact (to
  // rounding) no matter how many samples each side saw, independent of the
  // reservoir.
  Rng rng(31);
  RunningStats whole;
  RunningStats parts[3];
  const std::size_t n = 5 * RunningStats::kReservoirCapacity;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.gamma(2.0, 50.0);
    whole.add(v);
    parts[i % 3].add(v);
  }
  RunningStats merged;
  for (auto& p : parts) merged.merge(p);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9 * whole.mean());
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9 * whole.variance());
  EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9 * whole.sum());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  EXPECT_NEAR(merged.stddev(), whole.stddev(), 1e-9 * whole.stddev());
}

TEST(RunningStats, MergePercentilesExactWhileReservoirsFit) {
  // Until the combined sample count exceeds the reservoir, merge is a
  // concatenation and percentiles equal the directly-accumulated exact
  // ones.
  RunningStats direct;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double v = (i * 7919) % 1000;
    direct.add(v);
    (i < 500 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_DOUBLE_EQ(left.p50(), direct.p50());
  EXPECT_DOUBLE_EQ(left.p95(), direct.p95());
  EXPECT_DOUBLE_EQ(left.p99(), direct.p99());
  EXPECT_DOUBLE_EQ(left.percentile(0.0), direct.percentile(0.0));
  EXPECT_DOUBLE_EQ(left.percentile(1.0), direct.percentile(1.0));
}

TEST(RunningStats, PercentileEqualsInterpolationOverTheSortedReservoir) {
  // percentile(q) selects order statistics instead of sorting; it must
  // equal linear interpolation over the fully sorted reservoir exactly,
  // at the ends and with many duplicate values too.
  RunningStats s;
  Rng rng(17);
  std::vector<double> values;
  for (int i = 0; i < 3'000; ++i) {
    const double x = i % 3 == 0 ? 42.0 : rng.gamma(2.0, 100.0);
    s.add(x);
    values.push_back(x);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0, 0.3337}) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double want = values[lo] + (pos - static_cast<double>(lo)) *
                                         (values[hi] - values[lo]);
    EXPECT_EQ(s.percentile(q), want) << "q=" << q;
  }
}

TEST(RunningStats, MergedReservoirIsDeterministic) {
  // Two independent replays of the same add/merge sequence must agree on
  // every percentile bit-for-bit — the property the parallel sweep relies
  // on for reproducible reports. Sized so the merge overflows the
  // reservoir and takes the weighted-downsample path.
  auto build = [] {
    RunningStats parts[4];
    for (int p = 0; p < 4; ++p) {
      const std::size_t n = RunningStats::kReservoirCapacity / 2 +
                            static_cast<std::size_t>(p) * 1000;
      for (std::size_t i = 0; i < n; ++i) {
        parts[p].add(static_cast<double>((i * 2654435761u + p) % 100000));
      }
    }
    RunningStats merged;
    for (auto& p : parts) merged.merge(p);
    return merged;
  };
  const RunningStats a = build();
  const RunningStats b = build();
  EXPECT_EQ(a.count(), b.count());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(q), b.percentile(q)) << "q=" << q;
  }
  // Ordered and inside the observed range.
  EXPECT_LE(a.min(), a.p50());
  EXPECT_LE(a.p50(), a.p95());
  EXPECT_LE(a.p95(), a.p99());
  EXPECT_LE(a.p99(), a.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Table, AlignsColumns) {
  Table t("demo");
  t.header({"a", "long-header", "c"});
  t.row({"1", "2", "3"});
  t.row({"wide-cell", "x", "y"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("long-header"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials) {
  Table t("");
  t.header({"x", "y"});
  t.row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableFmt, Formats) {
  EXPECT_EQ(util::fmt_f(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_x(54.0, 1), "54.0x");
  EXPECT_EQ(util::fmt_ns(12.0), "12.00 ns");
  EXPECT_EQ(util::fmt_ns(1500.0), "1.50 us");
  EXPECT_EQ(util::fmt_ns(2.5e6), "2.50 ms");
  EXPECT_EQ(util::fmt_ns(3.2e9), "3.20 s");
  EXPECT_EQ(util::fmt_count(12502499), "12,502,499");
  EXPECT_EQ(util::fmt_count(999), "999");
  EXPECT_EQ(util::fmt_count(0), "0");
}

TEST(Flags, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--cores=64", "--depth", "2", "pos1",
                        "--full"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.get_int("cores", 0), 64);
  EXPECT_EQ(flags.get_int("depth", 0), 2);
  EXPECT_TRUE(flags.get_bool("full", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

TEST(Flags, LastOccurrenceWins) {
  const char* argv[] = {"prog", "--n=1", "--n=2"};
  Flags flags(3, argv);
  EXPECT_EQ(flags.get_int("n", 0), 2);
}

TEST(Flags, FallbacksAndBadNumbers) {
  const char* argv[] = {"prog", "--bad=xyz"};
  Flags flags(2, argv);
  EXPECT_THROW((void)flags.get_int("bad", 7), std::invalid_argument);
  EXPECT_THROW((void)flags.get_count("bad", 7), std::invalid_argument);
  EXPECT_EQ(flags.get_int("missing", 9), 9);
  EXPECT_EQ(flags.get_count("missing", 9), 9u);
  EXPECT_EQ(flags.get_or("missing", "dflt"), "dflt");
}

TEST(Flags, TrailingJunkIsRejected) {
  const char* argv[] = {"prog", "--cores=6four", "--n=", "--depth=2.5"};
  Flags flags(4, argv);
  for (const char* name : {"cores", "n", "depth"}) {
    SCOPED_TRACE(name);
    EXPECT_THROW((void)flags.get_int(name, 1), std::invalid_argument);
  }
  try {
    (void)flags.get_count("cores", 64);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names the flag and the value it rejected.
    EXPECT_NE(std::string(e.what()).find("--cores=6four"), std::string::npos)
        << e.what();
  }
}

TEST(Flags, CountsRejectNegativeAndOversizedValues) {
  const char* argv[] = {"prog", "--threads=-1", "--banks", "-4",
                        "--n=4294967296", "--cols=4294967295"};
  Flags flags(6, argv);
  EXPECT_EQ(flags.get_int("threads", 0), -1);
  EXPECT_THROW((void)flags.get_count("threads", 2), std::invalid_argument);
  EXPECT_THROW((void)flags.get_count("banks", 1), std::invalid_argument);
  EXPECT_THROW((void)flags.get_count("n", 250), std::invalid_argument);
  EXPECT_EQ(flags.get_count("cols", 68), 4294967295u);
}

TEST(Flags, BoolParsing) {
  const char* argv[] = {"prog", "--yes=1", "--no=false", "--zero=0",
                        "--word=yes", "--maybe=maybe"};
  Flags flags(6, argv);
  EXPECT_TRUE(flags.get_bool("yes", false));
  EXPECT_FALSE(flags.get_bool("no", true));
  EXPECT_FALSE(flags.get_bool("zero", true));
  EXPECT_TRUE(flags.get_bool("word", false));
  EXPECT_TRUE(flags.get_bool("missing", true));
  EXPECT_THROW((void)flags.get_bool("maybe", true), std::invalid_argument);
}

TEST(Flags, ValueRulesStandAlone) {
  // The benches read their NEXUSPP_* environment with these: exactly the
  // values get_bool and get_count accept, and nullopt for the rest.
  for (const char* v : {"1", "true", "yes"}) {
    EXPECT_EQ(util::parse_bool(v), true) << v;
  }
  for (const char* v : {"0", "false", "no"}) {
    EXPECT_EQ(util::parse_bool(v), false) << v;
  }
  for (const char* v : {"", "maybe", "TRUE", "on", "1 ", "out.csv"}) {
    EXPECT_EQ(util::parse_bool(v), std::nullopt) << v;
  }
  EXPECT_EQ(util::parse_count("4"), 4u);
  EXPECT_EQ(util::parse_count("0"), 0u);
  EXPECT_EQ(util::parse_count("4294967295"), 4294967295u);
  for (const char* v :
       {"", "4x", "abc", "-1", "+4", " 4", "2.5", "4294967296"}) {
    EXPECT_EQ(util::parse_count(v), std::nullopt) << v;
  }
}

TEST(Flags, BooleanFlagReadsItsValue) {
  // The examples read --csv with get_bool: `--csv=false` turns it off, and
  // a value that is no boolean (a file name) throws naming the flag
  // instead of reading as set.
  {
    const char* argv[] = {"prog", "--csv=false"};
    Flags flags(2, argv, {"csv"});
    EXPECT_FALSE(flags.get_bool("csv", false));
  }
  const char* argv[] = {"prog", "--csv=out.csv"};
  Flags flags(2, argv, {"csv"});
  try {
    (void)flags.get_bool("csv", false);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--csv=out.csv"), std::string::npos)
        << e.what();
  }
}

TEST(Flags, KnownBooleanDoesNotSwallowPositional) {
  // Regression: greedy `--name value` used to consume a following
  // positional as the value of a boolean flag.
  const char* argv[] = {"prog", "--verbose", "trace.json"};
  Flags flags(3, argv, {"verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_or("verbose", ""), "1");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "trace.json");
}

TEST(Flags, TrailingBooleanFlag) {
  const char* argv[] = {"prog", "input.trc", "--verbose"};
  Flags flags(3, argv, {"verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.trc");
}

TEST(Flags, NegativeNumberValues) {
  const char* argv[] = {"prog", "--delta", "-5", "--bias=-2"};
  Flags flags(4, argv);
  EXPECT_EQ(flags.get_int("delta", 0), -5);
  EXPECT_EQ(flags.get_int("bias", 0), -2);
  EXPECT_TRUE(flags.positional().empty());
}

TEST(Flags, DoubleDashTerminatesFlagParsing) {
  const char* argv[] = {"prog", "--cores=4", "--", "--not-a-flag", "file"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("cores", 0), 4);
  EXPECT_FALSE(flags.get("not-a-flag").has_value());
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "--not-a-flag");
  EXPECT_EQ(flags.positional()[1], "file");
}

TEST(Flags, KnownBooleanStillAcceptsEqualsValue) {
  const char* argv[] = {"prog", "--csv=out.csv", "rest"};
  Flags flags(3, argv, {"csv"});
  EXPECT_EQ(flags.get_or("csv", ""), "out.csv");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "rest");
}

}  // namespace
}  // namespace nexuspp
