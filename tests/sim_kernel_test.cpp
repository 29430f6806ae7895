// Tests for the discrete-event kernel: time arithmetic, event ordering,
// determinism, nested coroutines and exceptions.

#include <gtest/gtest.h>

#include <vector>

#include "sim/co.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace nexuspp {
namespace {

using sim::Co;
using sim::Simulator;
using sim::Time;

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(sim::ns(1), 1000);
  EXPECT_EQ(sim::us(1), 1'000'000);
  EXPECT_EQ(sim::ms(1), 1'000'000'000);
  EXPECT_EQ(sim::ps(7), 7);
  EXPECT_EQ(sim::ns_f(11.8), 11'800);
  EXPECT_EQ(sim::ns_f(0.5), 500);
  EXPECT_DOUBLE_EQ(sim::to_ns(sim::ns(42)), 42.0);
  EXPECT_DOUBLE_EQ(sim::to_us(sim::us(3)), 3.0);
  EXPECT_DOUBLE_EQ(sim::to_ms(sim::ms(2)), 2.0);
}

Co<void> record_at(Simulator& s, Time delay, int tag, std::vector<int>& log) {
  co_await s.delay(delay);
  log.push_back(tag);
}

TEST(SimKernel, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> log;
  s.spawn(record_at(s, sim::ns(30), 3, log));
  s.spawn(record_at(s, sim::ns(10), 1, log));
  s.spawn(record_at(s, sim::ns(20), 2, log));
  const Time end = s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(end, sim::ns(30));
}

TEST(SimKernel, TiesBreakByInsertionOrder) {
  Simulator s;
  std::vector<int> log;
  s.spawn(record_at(s, sim::ns(5), 1, log));
  s.spawn(record_at(s, sim::ns(5), 2, log));
  s.spawn(record_at(s, sim::ns(5), 3, log));
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

Co<void> multi_delay(Simulator& s, std::vector<Time>& stamps) {
  stamps.push_back(s.now());
  co_await s.delay(sim::ns(10));
  stamps.push_back(s.now());
  co_await s.delay(sim::ns(15));
  stamps.push_back(s.now());
  co_await s.delay(0);  // zero delay still yields but time is unchanged
  stamps.push_back(s.now());
}

TEST(SimKernel, TimeAdvancesAcrossAwaits) {
  Simulator s;
  std::vector<Time> stamps;
  s.spawn(multi_delay(s, stamps));
  s.run();
  ASSERT_EQ(stamps.size(), 4u);
  EXPECT_EQ(stamps[0], 0);
  EXPECT_EQ(stamps[1], sim::ns(10));
  EXPECT_EQ(stamps[2], sim::ns(25));
  EXPECT_EQ(stamps[3], sim::ns(25));
}

Co<int> child_value(Simulator& s) {
  co_await s.delay(sim::ns(7));
  co_return 99;
}

Co<void> parent_awaits(Simulator& s, int& result, Time& at) {
  result = co_await child_value(s);
  at = s.now();
}

TEST(SimKernel, NestedCoroutineReturnsValueAndAdvancesTime) {
  Simulator s;
  int result = 0;
  Time at = -1;
  s.spawn(parent_awaits(s, result, at));
  s.run();
  EXPECT_EQ(result, 99);
  EXPECT_EQ(at, sim::ns(7));
}

Co<int> deeply_nested(Simulator& s, int depth) {
  if (depth == 0) {
    co_await s.delay(sim::ns(1));
    co_return 0;
  }
  const int below = co_await deeply_nested(s, depth - 1);
  co_return below + 1;
}

Co<void> nest_driver(Simulator& s, int& out) {
  out = co_await deeply_nested(s, 100);
}

TEST(SimKernel, DeepNestingWorks) {
  Simulator s;
  int out = -1;
  s.spawn(nest_driver(s, out));
  s.run();
  EXPECT_EQ(out, 100);
  EXPECT_EQ(s.now(), sim::ns(1));
}

Co<void> thrower(Simulator& s) {
  co_await s.delay(sim::ns(1));
  throw std::runtime_error("boom");
}

TEST(SimKernel, ProcessExceptionPropagatesFromRun) {
  Simulator s;
  s.spawn(thrower(s));
  EXPECT_THROW(s.run(), std::runtime_error);
}

Co<void> nested_thrower_parent(Simulator& s, bool& caught) {
  try {
    co_await thrower(s);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(SimKernel, NestedExceptionCatchableInParent) {
  Simulator s;
  bool caught = false;
  s.spawn(nested_thrower_parent(s, caught));
  s.run();
  EXPECT_TRUE(caught);
}

TEST(SimKernel, NegativeDelayRejected) {
  Simulator s;
  std::vector<int> log;
  s.spawn(record_at(s, -1, 0, log));
  EXPECT_THROW(s.run(), sim::SimError);
}

TEST(SimKernel, EventsExecutedCounter) {
  Simulator s;
  std::vector<int> log;
  s.spawn(record_at(s, sim::ns(1), 1, log));
  s.run();
  // spawn resumption + delay resumption = 2 events.
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(SimKernel, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator s;
    std::vector<int> log;
    for (int i = 0; i < 50; ++i) {
      s.spawn(record_at(s, sim::ns(100 - i), i, log));
    }
    s.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

Co<void> spawner_child(Simulator& s, std::vector<int>& log) {
  co_await s.delay(sim::ns(5));
  log.push_back(2);
}

Co<void> spawner(Simulator& s, std::vector<int>& log) {
  co_await s.delay(sim::ns(1));
  log.push_back(1);
  s.spawn(spawner_child(s, log));
  co_await s.delay(sim::ns(10));
  log.push_back(3);
}

TEST(SimKernel, SpawnDuringRun) {
  Simulator s;
  std::vector<int> log;
  s.spawn(spawner(s, log));
  s.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), sim::ns(11));
}

TEST(SimKernel, SpawnInvalidProcessRejected) {
  Simulator s;
  Co<void> empty;
  EXPECT_THROW(s.spawn(std::move(empty)), sim::SimError);
}

}  // namespace
}  // namespace nexuspp
