// Tests for the real threaded StarSs-style runtime: dependency ordering
// (RAW/WAR/WAW/RAR), concurrency, nested submission, exceptions, barriers,
// duplicate accesses and how they merge, the submit() overloads, releases
// on demand, waits from task bodies, slot recycling past the in-flight
// bound, submission from two threads, and randomized stress against
// expected serial results.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/master_resolver.hpp"
#include "runtime/params.hpp"
#include "runtime/runtime.hpp"
#include "util/rng.hpp"

namespace nexuspp {
namespace {

using starss::Access;
using starss::Runtime;

TEST(Runtime, RunsASingleTask) {
  Runtime rt(2);
  int x = 0;
  rt.submit([&x] { x = 42; }, {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 42);
  EXPECT_EQ(rt.stats().executed, 1u);
}

TEST(Runtime, RawOrdering) {
  Runtime rt(4);
  int a = 0;
  int b = 0;
  rt.submit(
      [&a] {
        // Dwell so the consumer is submitted while the producer still
        // runs (otherwise no RAW edge is needed and none is counted).
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::milliseconds(5)) {
        }
        a = 7;
      },
      {starss::out(&a)});
  rt.submit([&a, &b] { b = a * 2; }, {starss::in(&a), starss::out(&b)});
  rt.wait_all();
  EXPECT_EQ(b, 14);
  EXPECT_GE(rt.stats().raw_hazards, 1u);
}

TEST(Runtime, ChainOfHundredTasks) {
  Runtime rt(4);
  long value = 0;
  for (int i = 0; i < 100; ++i) {
    rt.submit([&value] { value += 1; }, {starss::inout(&value)});
  }
  rt.wait_all();
  EXPECT_EQ(value, 100);
}

TEST(Runtime, ConcurrentReadersActuallyOverlap) {
  Runtime rt(4);
  int shared = 5;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::atomic<int> sum{0};
  for (int i = 0; i < 8; ++i) {
    rt.submit(
        [&] {
          const int now = concurrent.fetch_add(1) + 1;
          int expected = peak.load();
          while (expected < now &&
                 !peak.compare_exchange_weak(expected, now)) {
          }
          // Busy-wait long enough for overlap to be observable.
          const auto start = std::chrono::steady_clock::now();
          while (std::chrono::steady_clock::now() - start <
                 std::chrono::milliseconds(5)) {
          }
          sum.fetch_add(shared);
          concurrent.fetch_sub(1);
        },
        {starss::in(&shared)});
  }
  rt.wait_all();
  EXPECT_EQ(sum.load(), 40);
  EXPECT_GE(peak.load(), 2) << "readers were serialized";
}

TEST(Runtime, WarWriterWaitsForReaders) {
  Runtime rt(4);
  int data = 10;
  std::atomic<int> reads_done{0};
  std::vector<int> observed(3, -1);
  for (int i = 0; i < 3; ++i) {
    rt.submit(
        [&data, &observed, &reads_done, i] {
          observed[static_cast<std::size_t>(i)] = data;
          // Dwell so the writer is submitted while readers still run (the
          // WAR edge only exists against unfinished readers).
          const auto start = std::chrono::steady_clock::now();
          while (std::chrono::steady_clock::now() - start <
                 std::chrono::milliseconds(5)) {
          }
          reads_done.fetch_add(1);
        },
        {starss::in(&data)});
  }
  int readers_before_write = -1;
  rt.submit(
      [&data, &reads_done, &readers_before_write] {
        readers_before_write = reads_done.load();
        data = 99;
      },
      {starss::inout(&data)});
  rt.wait_all();
  EXPECT_EQ(readers_before_write, 3);  // all readers finished first
  for (int v : observed) EXPECT_EQ(v, 10);
  EXPECT_EQ(data, 99);
  // At least one reader must still have been running at writer-submit time
  // (how many depends on OS scheduling of the busy-wait readers).
  EXPECT_GE(rt.stats().war_hazards, 1u);
}

TEST(Runtime, WawKeepsWriteOrder) {
  Runtime rt(4);
  int x = 0;
  std::vector<int> order;
  std::mutex m;
  for (int i = 1; i <= 5; ++i) {
    rt.submit(
        [&x, &order, &m, i] {
          x = i;
          std::lock_guard lock(m);
          order.push_back(i);
        },
        {starss::out(&x)});
  }
  rt.wait_all();
  EXPECT_EQ(x, 5);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_GE(rt.stats().waw_hazards, 4u);
}

TEST(Runtime, DiamondDataflow) {
  Runtime rt(4);
  int a = 0;
  int b = 0;
  int c = 0;
  int d = 0;
  rt.submit([&a] { a = 1; }, {starss::out(&a)});
  rt.submit([&a, &b] { b = a + 10; }, {starss::in(&a), starss::out(&b)});
  rt.submit([&a, &c] { c = a + 100; }, {starss::in(&a), starss::out(&c)});
  rt.submit([&b, &c, &d] { d = b + c; },
            {starss::in(&b), starss::in(&c), starss::out(&d)});
  rt.wait_all();
  EXPECT_EQ(d, 112);
}

TEST(Runtime, IndependentTasksUseMultipleThreads) {
  Runtime rt(4);
  std::atomic<unsigned> concurrent{0};
  std::atomic<unsigned> peak{0};
  std::vector<int> cells(16, 0);
  for (int i = 0; i < 16; ++i) {
    rt.submit(
        [&, i] {
          const unsigned now = concurrent.fetch_add(1) + 1;
          unsigned expected = peak.load();
          while (expected < now &&
                 !peak.compare_exchange_weak(expected, now)) {
          }
          const auto start = std::chrono::steady_clock::now();
          while (std::chrono::steady_clock::now() - start <
                 std::chrono::milliseconds(3)) {
          }
          cells[static_cast<std::size_t>(i)] = i;
          concurrent.fetch_sub(1);
        },
        {starss::out(&cells[static_cast<std::size_t>(i)])});
  }
  rt.wait_all();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(cells[static_cast<std::size_t>(i)], i);
  EXPECT_GE(peak.load(), 2u);
}

TEST(Runtime, NestedSubmissionFromTaskBody) {
  Runtime rt(2);
  int x = 0;
  int y = 0;
  rt.submit(
      [&rt, &x, &y] {
        x = 5;
        rt.submit([&x, &y] { y = x * 3; },
                  {starss::in(&x), starss::out(&y)});
      },
      {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(y, 15);
}

TEST(Runtime, WaitAllIsReusableBarrier) {
  Runtime rt(2);
  int x = 0;
  rt.submit([&x] { x = 1; }, {starss::inout(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 1);
  rt.submit([&x] { x = 2; }, {starss::inout(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 2);
  rt.wait_all();  // idempotent when idle
}

TEST(Runtime, TaskExceptionSurfacesAtWaitAll) {
  Runtime rt(2);
  int x = 0;
  rt.submit([] { throw std::runtime_error("task failed"); }, {});
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  EXPECT_THROW(rt.wait_all(), std::runtime_error);
  // The runtime stays usable afterwards.
  rt.submit([&x] { x = 2; }, {starss::inout(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 2);
}

TEST(Runtime, RejectsBadSubmissions) {
  Runtime rt(1);
  EXPECT_THROW(rt.submit(nullptr, {}), std::invalid_argument);
  int x = 0;
  EXPECT_THROW(
      rt.submit([] {}, {Access{nullptr, 4, core::AccessMode::kIn}}),
      std::invalid_argument);
  EXPECT_THROW(rt.submit([] {}, {Access{&x, 0, core::AccessMode::kIn}}),
               std::invalid_argument);
  EXPECT_THROW(rt.submit([] {}, {starss::in(&x),
                                 Access{nullptr, 4, core::AccessMode::kIn}}),
               std::invalid_argument);
  EXPECT_EQ(rt.stats().submitted, 0u);
  // A task body's submission goes through the channel; it counts nothing
  // either.
  std::atomic<int> refused{0};
  rt.submit(
      [&rt, &refused] {
        try {
          rt.submit([] {}, {Access{nullptr, 4, core::AccessMode::kIn}});
        } catch (const std::invalid_argument&) {
          refused.fetch_add(1);
        }
      },
      {});
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(refused.load(), 1);
  EXPECT_EQ(x, 1);
  EXPECT_EQ(rt.stats().submitted, 2u);
  EXPECT_EQ(rt.stats().executed, 2u);
}

TEST(Runtime, ParameterlessTasksRunUnordered) {
  Runtime rt(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    rt.submit([&count] { count.fetch_add(1); }, {});
  }
  rt.wait_all();
  EXPECT_EQ(count.load(), 50);
}

TEST(Runtime, DefaultsToHardwareConcurrency) {
  Runtime rt;
  EXPECT_GE(rt.thread_count(), 1u);
}

// Wavefront stress: computes the H.264-style recurrence over a grid with
// tasks and compares against the serial result. Parameterized over thread
// counts and grid sizes.
class RuntimeWavefront
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(RuntimeWavefront, MatchesSerialReference) {
  const unsigned threads = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  const auto idx = [n](int i, int j) {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(j);
  };

  // Serial reference: v(i,j) = 1 + left + upright.
  std::vector<long> ref(static_cast<std::size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const long left = j > 0 ? ref[idx(i, j - 1)] : 0;
      const long upright = (i > 0 && j + 1 < n) ? ref[idx(i - 1, j + 1)] : 0;
      ref[idx(i, j)] = 1 + left + upright;
    }
  }

  std::vector<long> grid(static_cast<std::size_t>(n) * n, 0);
  Runtime rt(threads);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      std::vector<Access> acc;
      if (j > 0) acc.push_back(starss::in(&grid[idx(i, j - 1)]));
      if (i > 0 && j + 1 < n) {
        acc.push_back(starss::in(&grid[idx(i - 1, j + 1)]));
      }
      acc.push_back(starss::inout(&grid[idx(i, j)]));
      rt.submit(
          [&grid, idx, i, j, n] {
            const long left = j > 0 ? grid[idx(i, j - 1)] : 0;
            const long upright =
                (i > 0 && j + 1 < n) ? grid[idx(i - 1, j + 1)] : 0;
            grid[idx(i, j)] = 1 + left + upright;
          },
          acc);
    }
  }
  rt.wait_all();
  EXPECT_EQ(grid, ref);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSizes, RuntimeWavefront,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(4, 9, 16)));

// Randomized stress: tasks mutate a small set of counters with random
// access modes; the dependency semantics guarantee the same final state as
// serial execution in submission order.
class RuntimeRandomStress : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RuntimeRandomStress, EquivalentToSerialExecution) {
  util::Rng rng(GetParam());
  constexpr int kCells = 6;
  constexpr int kTasks = 400;

  struct Op {
    int target;
    int source;
    bool add;  // add source cell value (reads source), else increment
  };
  std::vector<Op> ops;
  ops.reserve(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    Op op;
    op.target = static_cast<int>(rng.below(kCells));
    op.source = static_cast<int>(rng.below(kCells));
    op.add = rng.chance(0.5) && op.source != op.target;
    ops.push_back(op);
  }

  // Serial reference.
  std::vector<long> ref(kCells, 1);
  for (const auto& op : ops) {
    if (op.add) {
      ref[static_cast<std::size_t>(op.target)] +=
          ref[static_cast<std::size_t>(op.source)];
    } else {
      ref[static_cast<std::size_t>(op.target)] += 1;
    }
  }

  std::vector<long> cells(kCells, 1);
  Runtime rt(4);
  for (const auto& op : ops) {
    long* target = &cells[static_cast<std::size_t>(op.target)];
    if (op.add) {
      long* source = &cells[static_cast<std::size_t>(op.source)];
      rt.submit([target, source] { *target += *source; },
                {starss::inout(target), starss::in(source)});
    } else {
      rt.submit([target] { *target += 1; }, {starss::inout(target)});
    }
  }
  rt.wait_all();
  EXPECT_EQ(cells, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeRandomStress,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Runtime, WaitOnBlocksForWriter) {
  Runtime rt(2);
  int slow = 0;
  int fast = 0;
  std::atomic<bool> slow_done{false};
  rt.submit(
      [&slow, &slow_done] {
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::milliseconds(10)) {
        }
        slow = 1;
        slow_done.store(true);
      },
      {starss::out(&slow)});
  rt.submit([&fast] { fast = 1; }, {starss::out(&fast)});

  rt.wait_on(&slow);
  EXPECT_TRUE(slow_done.load());
  EXPECT_EQ(slow, 1);
  rt.wait_all();
}

TEST(Runtime, WaitOnUntrackedAddressReturnsImmediately) {
  Runtime rt(2);
  int x = 0;
  rt.wait_on(&x);  // never accessed: no-op
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 1);
}

/// A task body that holds its worker until open(), or until a 10-s
/// deadline passes, so a wait that wrongly needs the worker fails the test
/// (expired) instead of hanging it.
struct Gate {
  void hold() {
    holding.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!opened.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        expired.store(true);
        return;
      }
      std::this_thread::yield();
    }
  }
  void open() { opened.store(true); }

  std::atomic<int> holding{0};
  std::atomic<bool> opened{false};
  std::atomic<bool> expired{false};
};

TEST(Runtime, WaitOnReturnsWhileTheOnlyWorkerIsBusy) {
  // wait_on's sentinel never needs a worker: once x's writer is released,
  // wait_on returns although the only worker holds an unrelated task that
  // waits for exactly that.
  Runtime rt(1);
  int x = 0;
  Gate gate;
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  rt.submit([&gate] { gate.hold(); }, {});
  rt.wait_on(&x);
  EXPECT_FALSE(gate.expired.load());
  const int seen = x;
  EXPECT_EQ(seen, 1);
  gate.open();
  rt.wait_all();
  EXPECT_FALSE(gate.expired.load());
  EXPECT_EQ(rt.stats().executed, 2u);
}

TEST(Runtime, NextSubmitReleasesAWaitingTask) {
  // B waits for A. Once A's completion is posted, the next submit() (of an
  // unrelated task C) must release A and so start B, with no further call
  // into the runtime. The one worker runs A, then D; D's body running
  // proves A was posted, as the worker posts A before it claims D.
  Runtime rt(1);
  Gate gate;
  int a = 0;
  int c = 0;
  std::atomic<bool> b_ran{false};
  std::atomic<bool> d_ran{false};
  rt.submit(
      [&a, &gate] {
        gate.hold();
        a = 1;
      },
      {starss::out(&a)});
  rt.submit([&a, &b_ran] { b_ran.store(a == 1); }, {starss::in(&a)});
  rt.submit([&d_ran] { d_ran.store(true); }, {});
  gate.open();
  const auto spin_until = [](const std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return flag.load();
  };
  ASSERT_TRUE(spin_until(d_ran));
  rt.submit([&c] { c = 1; }, {starss::out(&c)});
  EXPECT_TRUE(spin_until(b_ran)) << "B was not released by the next submit";
  rt.wait_all();
  EXPECT_FALSE(gate.expired.load());
  EXPECT_EQ(rt.stats().executed, 4u);
}

TEST(Runtime, WaitOnUntrackedAddressReturnsWhileWorkersAreBusy) {
  Runtime rt(2);
  Gate gate;
  for (int i = 0; i < 2; ++i) rt.submit([&gate] { gate.hold(); }, {});
  while (gate.holding.load() < 2) std::this_thread::yield();
  int y = 0;
  rt.wait_on(&y);  // no task accesses y
  EXPECT_FALSE(gate.expired.load());
  gate.open();
  rt.wait_all();
  EXPECT_EQ(rt.stats().executed, 2u);
}

TEST(Runtime, WaitOnDoesNotWaitForLaterTasks) {
  Runtime rt(2);
  int x = 0;
  rt.submit([&x] { x = 1; }, {starss::out(&x)});
  rt.wait_on(&x);
  const int seen = x;
  EXPECT_EQ(seen, 1);
  // A task submitted after wait_on is not part of that wait.
  rt.submit([&x] { x = 2; }, {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(x, 2);
}

TEST(Runtime, DuplicateAccessesInOneTask) {
  // Accesses to one address in one task merge: in + out acts as inout,
  // out + out as out, in + in as in. None may hold its own task back.
  {
    Runtime rt(1);
    long v = 1;
    rt.submit([&v] { v = v * 2 + 1; }, {starss::in(&v), starss::out(&v)});
    rt.wait_all();
    EXPECT_EQ(v, 3);
    EXPECT_EQ(rt.stats().dependency_edges, 0u);
  }
  // Unsigned, so the mixing wraps instead of overflowing.
  std::uint64_t x = 1;
  std::uint64_t y = 0;
  std::uint64_t z = 1;
  std::uint64_t ref_x = 1;
  std::uint64_t ref_y = 0;
  std::uint64_t ref_z = 1;
  Runtime rt(4);
  for (std::uint64_t r = 0; r < 300; ++r) {
    rt.submit([&x, r] { x = x * 3 + r; },
              {starss::in(&x), starss::out(&x)});
    rt.submit([&x, &y, r] { y = x + r; },
              {starss::out(&y), starss::in(&x), starss::out(&y)});
    rt.submit([&x, &z] { z = z * 7 + x; },
              {starss::in(&x), starss::inout(&z), starss::in(&x)});
    ref_x = ref_x * 3 + r;
    ref_y = ref_x + r;
    ref_z = ref_z * 7 + ref_x;
  }
  rt.wait_all();
  EXPECT_EQ(x, ref_x);
  EXPECT_EQ(y, ref_y);
  EXPECT_EQ(z, ref_z);
}

TEST(Runtime, ToParamsMergesDuplicatesInDeclarationOrder) {
  // Up to one descriptor's worth of accesses: the merged parameter keeps
  // the first access's place, the combined mode and the largest size.
  long a = 0;
  long b = 0;
  long c = 0;
  const std::vector<Access> short_list = {
      starss::in(&b), starss::in(&a), starss::out(&b, 4), starss::in(&c),
      starss::in(&a)};
  std::vector<core::Param> params;
  starss::to_params(short_list, params);
  const auto addr = [](const void* p) {
    return reinterpret_cast<core::Addr>(p);
  };
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0].addr, addr(&b));
  EXPECT_EQ(params[0].mode, core::AccessMode::kInOut);
  EXPECT_EQ(params[0].size, 4 * sizeof(long));
  EXPECT_EQ(params[1].addr, addr(&a));
  EXPECT_EQ(params[1].mode, core::AccessMode::kIn);
  EXPECT_EQ(params[1].size, sizeof(long));
  EXPECT_EQ(params[2].addr, addr(&c));

  // A longer list is put in address order, then merged the same way.
  long v[10] = {};
  std::vector<Access> long_list;
  for (int i = 9; i >= 0; --i) long_list.push_back(starss::in(&v[i]));
  long_list.push_back(starss::out(&v[3], 2));
  long_list.push_back(starss::out(&v[5]));
  starss::to_params(long_list, params);
  ASSERT_EQ(params.size(), 10u);
  for (std::size_t i = 0; i < params.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(params[i].addr, addr(&v[i]));
    EXPECT_EQ(params[i].mode, i == 3 || i == 5 ? core::AccessMode::kInOut
                                               : core::AccessMode::kIn);
    EXPECT_EQ(params[i].size, (i == 3 ? 2 : 1) * sizeof(long));
  }

  // Neither list holds its own task back.
  Runtime rt(1);
  rt.submit([&b] { b = 7; }, short_list);
  rt.submit([&v] { v[3] = v[5] + 2; }, long_list);
  rt.wait_all();
  EXPECT_EQ(b, 7);
  EXPECT_EQ(v[3], 2);
  EXPECT_EQ(rt.stats().dependency_edges, 0u);
}

TEST(Runtime, EmptyBracedListAndVectorCallers) {
  Runtime rt(2);
  std::atomic<int> ran{0};
  rt.submit([&ran] { ran.fetch_add(1); }, {});
  int x = 0;
  std::vector<Access> accesses = {starss::out(&x)};
  rt.submit([&x] { x = 5; }, accesses);
  // The list is read during the call only; the caller may reuse it.
  accesses = {starss::inout(&x)};
  rt.submit([&x] { x *= 3; }, accesses);
  accesses.clear();
  rt.wait_all();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(x, 15);
  EXPECT_EQ(rt.stats().submitted, 3u);
}

TEST(Runtime, WaitFromTaskBodyThrowsLogicError) {
  Runtime rt(2);
  int x = 0;
  std::atomic<int> refused{0};
  rt.submit(
      [&rt, &x, &refused] {
        try {
          rt.wait_all();
        } catch (const std::logic_error&) {
          refused.fetch_add(1);
        }
        try {
          rt.wait_on(&x);
        } catch (const std::logic_error&) {
          refused.fetch_add(1);
        }
        x = 1;
      },
      {starss::out(&x)});
  rt.wait_all();
  EXPECT_EQ(refused.load(), 2);
  EXPECT_EQ(x, 1);
}

TEST(Runtime, SubmitAndStatsFromTaskBodyNeverWait) {
  // One worker: the body that submits is the only thread that could run
  // the children, so any wait inside submit() or stats() would hang. The
  // body submits more children than the in-flight bound.
  Runtime rt(1);
  constexpr long kChildren = 20'000;
  long sum = 0;
  std::uint64_t seen_submitted = 0;
  rt.submit(
      [&rt, &sum, &seen_submitted] {
        for (long i = 1; i <= kChildren; ++i) {
          rt.submit([&sum, i] { sum += i; }, {starss::inout(&sum)});
        }
        seen_submitted = rt.stats().submitted;
      },
      {starss::out(&seen_submitted)});
  rt.wait_all();
  EXPECT_EQ(sum, kChildren * (kChildren + 1) / 2);
  EXPECT_EQ(seen_submitted, 1u + static_cast<std::uint64_t>(kChildren));
  EXPECT_EQ(rt.stats().executed, 1u + static_cast<std::uint64_t>(kChildren));
}

TEST(Runtime, RecyclesSlotsPastTheBoundAndMatchesSerialReplay) {
  // Fifty times the 1 024-slot bound, so every slot is reused and
  // submit() applies back-pressure throughout: a chain, mixing over
  // independent cells, nested submissions, and wait_on mid-stream, checked
  // against a serial replay.
  constexpr int kOps = 52'000;
  constexpr std::size_t kCells = 64;
  enum class Kind { kChain, kMix, kNested };
  struct Op {
    Kind kind;
    std::size_t a;
    std::size_t b;
  };
  util::Rng rng(17);
  std::vector<Op> ops;
  std::size_t nested = 0;
  for (int i = 0; i < kOps; ++i) {
    const auto roll = rng.below(10);
    Op op{roll < 3 ? Kind::kChain : roll < 9 ? Kind::kMix : Kind::kNested,
          static_cast<std::size_t>(rng.below(kCells)),
          static_cast<std::size_t>(rng.below(kCells))};
    if (op.kind == Kind::kMix && op.a == op.b) op.b = (op.b + 1) % kCells;
    if (op.kind == Kind::kNested) op.b = nested++;
    ops.push_back(op);
  }

  // Serial replay, with the chain's value at each mid-stream check.
  constexpr int kCheckEvery = 13'000;
  std::uint64_t ref_chain = 1;
  std::vector<std::uint64_t> ref_cells(kCells, 1);
  std::vector<std::uint64_t> ref_result(nested, 0);
  std::vector<std::uint64_t> ref_checks;
  for (int i = 0; i < kOps; ++i) {
    const Op& op = ops[static_cast<std::size_t>(i)];
    if (op.kind == Kind::kChain) {
      ref_chain = ref_chain * 31 + static_cast<std::uint64_t>(i);
    } else if (op.kind == Kind::kMix) {
      ref_cells[op.a] = ref_cells[op.a] * 5 + ref_cells[op.b];
    } else {
      ref_result[op.b] = ref_cells[op.a] * 3 + 1;
    }
    if ((i + 1) % kCheckEvery == 0) ref_checks.push_back(ref_chain);
  }

  std::uint64_t chain = 1;
  std::vector<std::uint64_t> cells(kCells, 1);
  std::vector<std::uint64_t> staged(nested, 0);
  std::vector<std::uint64_t> result(nested, 0);
  std::vector<std::uint64_t> checks;
  Runtime rt(4);
  for (int i = 0; i < kOps; ++i) {
    const Op& op = ops[static_cast<std::size_t>(i)];
    if (op.kind == Kind::kChain) {
      rt.submit(
          [&chain, i] { chain = chain * 31 + static_cast<std::uint64_t>(i); },
          {starss::inout(&chain)});
    } else if (op.kind == Kind::kMix) {
      std::uint64_t* const dst = &cells[op.a];
      const std::uint64_t* const src = &cells[op.b];
      rt.submit([dst, src] { *dst = *dst * 5 + *src; },
                {starss::inout(dst), starss::in(src)});
    } else {
      // The parent copies its cell aside; the child it submits derives the
      // result from the copy. Neither address is shared with other tasks,
      // so the child's registration point does not change the answer.
      const std::uint64_t* const src = &cells[op.a];
      std::uint64_t* const copy = &staged[op.b];
      std::uint64_t* const out = &result[op.b];
      rt.submit(
          [&rt, src, copy, out] {
            *copy = *src;
            rt.submit([copy, out] { *out = *copy * 3 + 1; },
                      {starss::in(copy), starss::out(out)});
          },
          {starss::in(src), starss::out(copy)});
    }
    if ((i + 1) % kCheckEvery == 0) {
      rt.wait_on(&chain);
      checks.push_back(chain);
    }
  }
  rt.wait_all();
  EXPECT_EQ(checks, ref_checks);
  EXPECT_EQ(chain, ref_chain);
  EXPECT_EQ(cells, ref_cells);
  EXPECT_EQ(result, ref_result);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kOps) + nested);
  EXPECT_EQ(stats.executed, stats.submitted);
}

TEST(Runtime, TwoThreadsSubmitAtOnce) {
  // Each thread keeps its own cells, so each thread's submission order is
  // the serial order its cells must follow; the two streams interleave
  // through the Maestro role and the submission channel.
  constexpr int kPerThread = 20'000;
  constexpr std::size_t kCells = 16;
  const auto serial = [] {
    std::vector<std::uint64_t> cells(kCells, 1);
    for (int i = 0; i < kPerThread; ++i) {
      std::uint64_t& c = cells[static_cast<std::size_t>(i) % kCells];
      c = c * 3 + static_cast<std::uint64_t>(i);
    }
    return cells;
  };
  std::vector<std::uint64_t> a(kCells, 1);
  std::vector<std::uint64_t> b(kCells, 1);
  Runtime rt(2);
  const auto producer = [&rt](std::vector<std::uint64_t>* cells) {
    for (int i = 0; i < kPerThread; ++i) {
      std::uint64_t* const c = &(*cells)[static_cast<std::size_t>(i) % kCells];
      rt.submit([c, i] { *c = *c * 3 + static_cast<std::uint64_t>(i); },
                {starss::inout(c)});
    }
  };
  std::thread first(producer, &a);
  std::thread second(producer, &b);
  first.join();
  second.join();
  rt.wait_all();
  const auto expected = serial();
  EXPECT_EQ(a, expected);
  EXPECT_EQ(b, expected);
  EXPECT_EQ(rt.stats().executed, 2u * kPerThread);
}

TEST(Runtime, SecondThreadWaitsForTheMaestroOnceTheChannelIsFull) {
  // The main thread holds the Maestro role inside wait_on() while a slow
  // task runs, so the second thread's submissions queue in the channel;
  // past the slot bound they wait for the role instead of growing it.
  Runtime rt(2);
  int slow = 0;
  std::atomic<bool> started{false};
  rt.submit(
      [&slow, &started] {
        started.store(true);
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::milliseconds(100)) {
        }
        slow = 1;
      },
      {starss::out(&slow)});
  constexpr long kTasks = 30'000;
  long sum = 0;
  std::thread second([&rt, &started, &sum] {
    while (!started.load()) std::this_thread::yield();
    for (long i = 1; i <= kTasks; ++i) {
      rt.submit([&sum, i] { sum += i; }, {starss::inout(&sum)});
    }
  });
  rt.wait_on(&slow);
  EXPECT_EQ(slow, 1);
  second.join();
  rt.wait_all();
  EXPECT_EQ(sum, kTasks * (kTasks + 1) / 2);
  EXPECT_EQ(rt.stats().executed, 1u + static_cast<std::uint64_t>(kTasks));
}

TEST(Runtime, TaskWithAsManyAccessesAsTheTableHolds) {
  // As many distinct addresses as the Dependence Table has entries fill
  // it; one more could never register, so submit() rejects it up front.
  constexpr std::size_t kTableEntries =
      exec::MasterResolverConfig{}.table_capacity;
  std::vector<char> bytes(kTableEntries + 1);
  std::vector<Access> accesses;
  for (std::size_t i = 0; i < kTableEntries; ++i) {
    accesses.push_back(starss::inout(&bytes[i]));
  }
  Runtime rt(2);
  bool ran = false;
  rt.submit([&ran] { ran = true; }, accesses);
  rt.submit([&ran] { ran = !ran; }, {starss::in(&bytes[0])});
  rt.wait_all();
  EXPECT_FALSE(ran);  // both ran, in order
  accesses.push_back(starss::inout(&bytes[kTableEntries]));
  EXPECT_THROW(rt.submit([] {}, accesses), std::invalid_argument);
  rt.wait_all();
  EXPECT_EQ(rt.stats().submitted, 2u);
}

}  // namespace
}  // namespace nexuspp
