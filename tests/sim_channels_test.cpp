// Tests for the simulation channel primitives: bounded FIFOs with
// stall-on-full / stall-on-empty handoff, events, counting semaphores and
// the round-robin arbiter.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/arbiter.hpp"
#include "sim/event.hpp"
#include "sim/fifo.hpp"
#include "sim/semaphore.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace nexuspp {
namespace {

using sim::Co;
using sim::Event;
using sim::Fifo;
using sim::RoundRobinArbiter;
using sim::Semaphore;
using sim::Simulator;
using sim::Time;

Co<void> produce_n(Simulator& s, Fifo<int>& f, int n, Time gap) {
  for (int i = 0; i < n; ++i) {
    co_await f.put(i);
    if (gap > 0) co_await s.delay(gap);
  }
}

Co<void> consume_n(Simulator& s, Fifo<int>& f, int n, Time gap,
                   std::vector<int>& out) {
  for (int i = 0; i < n; ++i) {
    out.push_back(co_await f.get());
    if (gap > 0) co_await s.delay(gap);
  }
}

/// Records the time each put (`puts`) or get (`gets`) completes: a stall
/// shows up as a completion later than the process asked.
Co<void> produce_timed(Simulator& s, Fifo<int>& f, int n, Time gap,
                       std::vector<Time>& puts) {
  for (int i = 0; i < n; ++i) {
    co_await f.put(i);
    puts.push_back(s.now());
    if (gap > 0) co_await s.delay(gap);
  }
}

Co<void> consume_timed(Simulator& s, Fifo<int>& f, int n,
                       std::vector<Time>& gets) {
  for (int i = 0; i < n; ++i) {
    (void)co_await f.get();
    gets.push_back(s.now());
  }
}

TEST(Fifo, PreservesOrderFastProducer) {
  Simulator s;
  Fifo<int> f(s, 4);
  std::vector<int> out;
  s.spawn(produce_n(s, f, 20, 0));
  s.spawn(consume_n(s, f, 20, sim::ns(3), out));
  s.run();
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(out[i], i);
}

TEST(Fifo, PreservesOrderFastConsumer) {
  Simulator s;
  Fifo<int> f(s, 4);
  std::vector<int> out;
  s.spawn(produce_n(s, f, 20, sim::ns(3)));
  s.spawn(consume_n(s, f, 20, 0, out));
  s.run();
  ASSERT_EQ(out.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(out[i], i);
}

TEST(Fifo, ProducerStallsWhenFull) {
  Simulator s;
  Fifo<int> f(s, 2);
  std::vector<int> out;
  std::vector<Time> puts;
  // Producer emits 5 items instantly; consumer drains one every 10 ns.
  // Two fit, the third enters when the consumer's first get frees a slot;
  // the last two wait for the consumer's gets at 10 and 20 ns.
  s.spawn(produce_timed(s, f, 5, 0, puts));
  s.spawn(consume_n(s, f, 5, sim::ns(10), out));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(puts, (std::vector<Time>{0, 0, 0, sim::ns(10), sim::ns(20)}));
  EXPECT_EQ(f.max_occupancy(), 2u);
}

TEST(Fifo, ConsumerStallsWhenEmpty) {
  Simulator s;
  Fifo<int> f(s, 8);
  std::vector<Time> gets;
  std::vector<Time> puts;
  s.spawn(consume_timed(s, f, 3, gets));
  s.spawn(produce_timed(s, f, 3, sim::ns(10), puts));
  s.run();
  // Each get waits for the put that hands it its item.
  EXPECT_EQ(gets, (std::vector<Time>{0, sim::ns(10), sim::ns(20)}));
  EXPECT_EQ(gets, puts);
}

TEST(Fifo, CapacityOneBehavesLikeRendezvousBuffer) {
  Simulator s;
  Fifo<int> f(s, 1);
  std::vector<int> out;
  s.spawn(produce_n(s, f, 10, 0));
  s.spawn(consume_n(s, f, 10, sim::ns(1), out));
  s.run();
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(f.max_occupancy(), 1u);
}

TEST(Fifo, TryVariantsDoNotBlock) {
  Simulator s;
  Fifo<int> f(s, 2);
  EXPECT_FALSE(f.try_get().has_value());
  EXPECT_TRUE(f.try_put(1));
  EXPECT_TRUE(f.try_put(2));
  EXPECT_FALSE(f.try_put(3));  // full
  auto v = f.try_get();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_EQ(f.size(), 1u);
}

TEST(Fifo, ZeroCapacityRejected) {
  Simulator s;
  EXPECT_THROW(Fifo<int>(s, 0), sim::SimError);
}

// Note: `tag` is taken by value — a coroutine must not hold references to
// caller temporaries across suspension points.
Co<void> two_getters_one_put(Simulator& s, Fifo<int>& f,
                             std::vector<std::string>& log, std::string tag) {
  const int v = co_await f.get();
  log.push_back(tag + ":" + std::to_string(v));
  (void)s;
}

Co<void> late_putter(Simulator& s, Fifo<int>& f) {
  co_await s.delay(sim::ns(5));
  co_await f.put(1);
  co_await s.delay(sim::ns(5));
  co_await f.put(2);
}

TEST(Fifo, BlockedGettersServedInArrivalOrder) {
  Simulator s;
  Fifo<int> f(s, 4);
  std::vector<std::string> log;
  s.spawn(two_getters_one_put(s, f, log, "first"));
  s.spawn(two_getters_one_put(s, f, log, "second"));
  s.spawn(late_putter(s, f));
  s.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "first:1");
  EXPECT_EQ(log[1], "second:2");
}

Co<void> hold_semaphore(Simulator& s, Semaphore& sem, Time hold,
                        std::vector<Time>& acquire_times) {
  co_await sem.acquire();
  acquire_times.push_back(s.now());
  co_await s.delay(hold);
  sem.release();
}

TEST(Semaphore, LimitsConcurrency) {
  Simulator s;
  Semaphore sem(s, 2);
  std::vector<Time> times;
  for (int i = 0; i < 6; ++i) {
    s.spawn(hold_semaphore(s, sem, sim::ns(10), times));
  }
  s.run();
  ASSERT_EQ(times.size(), 6u);
  // With 2 permits and 10 ns holds: pairs admitted at t=0, 10, 20.
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], 0);
  EXPECT_EQ(times[2], sim::ns(10));
  EXPECT_EQ(times[3], sim::ns(10));
  EXPECT_EQ(times[4], sim::ns(20));
  EXPECT_EQ(times[5], sim::ns(20));
  // Every permit came back: one more release exceeds the capacity.
  EXPECT_THROW(sem.release(), sim::SimError);
}

TEST(Semaphore, ReleaseOverCapacityThrows) {
  Simulator s;
  Semaphore sem(s, 2);
  EXPECT_THROW(sem.release(), sim::SimError);
}

TEST(Semaphore, ZeroPermitsRejected) {
  Simulator s;
  EXPECT_THROW(Semaphore(s, 0), sim::SimError);
}

Co<void> event_waiter(Simulator& s, Event& e, std::vector<Time>& log) {
  co_await e.wait();
  log.push_back(s.now());
}

Co<void> event_notifier(Simulator& s, Event& e) {
  co_await s.delay(sim::ns(20));
  e.notify_all();
}

TEST(Event, NotifyAllWakesEveryWaiter) {
  Simulator s;
  Event e(s);
  std::vector<Time> log;
  s.spawn(event_waiter(s, e, log));
  s.spawn(event_waiter(s, e, log));
  s.spawn(event_notifier(s, e));
  s.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], sim::ns(20));
  EXPECT_EQ(log[1], sim::ns(20));
}

Co<void> arbiter_server(Simulator& s, RoundRobinArbiter& arb, int grants,
                        std::vector<std::size_t>& order) {
  for (int i = 0; i < grants; ++i) {
    const std::size_t line = co_await arb.next();
    order.push_back(line);
    co_await s.delay(sim::ns(2));  // per-grant service time
  }
}

Co<void> arbiter_riser(Simulator& s, RoundRobinArbiter& arb, Time at,
                       std::size_t line) {
  co_await s.delay(at);
  arb.raise(line);
}

TEST(Arbiter, GrantsRoundRobinAmongSimultaneousRequests) {
  Simulator s;
  RoundRobinArbiter arb(s, 4);
  std::vector<std::size_t> order;
  s.spawn(arbiter_server(s, arb, 4, order));
  for (std::size_t i = 0; i < 4; ++i) {
    s.spawn(arbiter_riser(s, arb, sim::ns(1), i));
  }
  s.run();
  // Scan starts after line 0 (last_grant_ initialized to 0): 1,2,3,0.
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 0}));
}

TEST(Arbiter, WaitsForRequestsAndServesLateOnes) {
  Simulator s;
  RoundRobinArbiter arb(s, 3);
  std::vector<std::size_t> order;
  s.spawn(arbiter_server(s, arb, 2, order));
  s.spawn(arbiter_riser(s, arb, sim::ns(10), 2));
  s.spawn(arbiter_riser(s, arb, sim::ns(30), 0));
  s.run();
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 0}));
}

TEST(Arbiter, RaisesAreCountedNotCoalesced) {
  // A Task Controller finishing two buffered tasks back-to-back must get
  // two grants, not one, and each grant consumes one raise: a server
  // asking for a third waits forever.
  Simulator s;
  RoundRobinArbiter arb(s, 2);
  std::vector<std::size_t> order;
  arb.raise(1);
  arb.raise(1);
  s.spawn(arbiter_server(s, arb, 3, order));
  s.run();
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 1}));
}

TEST(Arbiter, BadLineRejected) {
  Simulator s;
  RoundRobinArbiter arb(s, 2);
  EXPECT_THROW(arb.raise(2), sim::SimError);
  EXPECT_THROW(RoundRobinArbiter(s, 0), sim::SimError);
}

}  // namespace
}  // namespace nexuspp
