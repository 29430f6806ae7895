// Microbenchmarks of the building blocks (google-benchmark):
//
//   * Dependence Table: construction at the executor's default size,
//     insert/lookup/erase cycles, kick-off append/pop including dummy-entry
//     overflow
//   * Task Pool: construction at the executor's default size, insert/free
//     with and without dummy-task chains
//   * Resolver: full submit+finish cycles (hardware structures) vs the
//     unbounded GraphOracle (software structures) — the "fewer resources
//     and computations" claim in host-time terms
//   * MasterResolver: the exec-threads master's Listing 2 without threads,
//     over fine-stream's input with a bounded window of tasks in flight
//   * Simulation kernel: event throughput, FIFO handoff
//   * Real runtime: end-to-end task throughput
//
// These measure *host* performance of the implementation; the simulated
// cycle costs are covered by the figure benches.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/dependence_table.hpp"
#include "core/oracle.hpp"
#include "core/resolver.hpp"
#include "core/task_pool.hpp"
#include "exec/executor.hpp"
#include "exec/master_resolver.hpp"
#include "runtime/runtime.hpp"
#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "workloads/random_dag.hpp"

namespace nexuspp {
namespace {

/// The exec-threads master's table at ExecConfig's defaults: part of the
/// per-run construction cost every Engine::run pays.
void BM_DependenceTable_Construct(benchmark::State& state) {
  const exec::ExecConfig defaults;
  for (auto _ : state) {
    core::DependenceTable dt(
        {defaults.dep_table_capacity, defaults.kick_off_capacity});
    benchmark::DoNotOptimize(dt);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DependenceTable_Construct);

void BM_DependenceTable_InsertLookupErase(benchmark::State& state) {
  core::DependenceTable dt({4096, 8});
  const auto addrs = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t a = 0; a < addrs; ++a) {
      auto ins = dt.insert(0x1000 + a * 64, 64, true);
      benchmark::DoNotOptimize(ins);
    }
    for (std::uint64_t a = 0; a < addrs; ++a) {
      auto hit = dt.lookup(0x1000 + a * 64);
      dt.erase(*hit.index);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(addrs));
}
BENCHMARK(BM_DependenceTable_InsertLookupErase)->Arg(64)->Arg(1024)->Arg(3500);

void BM_DependenceTable_KickoffOverflow(benchmark::State& state) {
  const auto waiters = static_cast<core::TaskId>(state.range(0));
  // The fill/drain cycle leaves the table empty, so it is built once.
  core::DependenceTable dt({4096, 8});
  for (auto _ : state) {
    auto ins = dt.insert(0x42, 64, true);
    auto idx = *ins.index;
    for (core::TaskId t = 0; t < waiters; ++t) {
      benchmark::DoNotOptimize(dt.kickoff_append(idx, t));
    }
    for (core::TaskId t = 0; t < waiters; ++t) {
      auto pop = dt.kickoff_pop(idx);
      idx = pop.parent;
    }
    dt.erase(idx);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(waiters));
}
BENCHMARK(BM_DependenceTable_KickoffOverflow)->Arg(8)->Arg(64)->Arg(512);

/// The exec-threads master's pool at ExecConfig's defaults (8 parameters
/// a descriptor, as exec::MasterResolver builds it).
void BM_TaskPool_Construct(benchmark::State& state) {
  const exec::ExecConfig defaults;
  for (auto _ : state) {
    core::TaskPool tp({defaults.task_pool_capacity, 8});
    benchmark::DoNotOptimize(tp);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TaskPool_Construct);

void BM_TaskPool_InsertFree(benchmark::State& state) {
  core::TaskPool tp({1024, 8});
  const auto params = static_cast<std::size_t>(state.range(0));
  core::TaskDescriptor td;
  for (std::size_t p = 0; p < params; ++p) {
    td.params.push_back(core::in(0x1000 + 64 * p, 64));
  }
  for (auto _ : state) {
    auto ins = tp.insert(td);
    tp.free_task(ins->id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskPool_InsertFree)->Arg(2)->Arg(8)->Arg(24)->Arg(64);

/// Hardware-structure resolution: producer/consumer pairs through
/// TaskPool + DependenceTable + Resolver, grants collected in one reused
/// buffer the way the engines do.
void BM_Resolver_SubmitFinishPair(benchmark::State& state) {
  core::TaskPool tp({1024, 8});
  core::DependenceTable dt({4096, 8});
  core::Resolver resolver(tp, dt);
  const std::vector<core::Param> producer{core::out(0x100, 64)};
  const std::vector<core::Param> consumer{core::in(0x100, 64),
                                          core::out(0x200, 64)};
  std::vector<core::TaskId> now_ready;
  for (auto _ : state) {
    auto p = tp.insert(0, 0, producer);
    auto ps = resolver.submit(p->id);
    auto c = tp.insert(0, 1, consumer);
    auto cs = resolver.submit(c->id);
    benchmark::DoNotOptimize(ps);
    benchmark::DoNotOptimize(cs);
    now_ready.clear();
    benchmark::DoNotOptimize(resolver.finish(p->id, now_ready));
    tp.free_task(p->id);
    benchmark::DoNotOptimize(resolver.finish(c->id, now_ready));
    tp.free_task(c->id);
    benchmark::DoNotOptimize(now_ready.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Resolver_SubmitFinishPair);

/// Listing 2 as the exec-threads master runs it, without threads:
/// perfbench fine-stream's input (30 000 tasks, 48 addresses, <= 6
/// parameters, write probability 0.5, seed 7) through one
/// exec::MasterResolver at the executor's default sizes, at most 16 tasks
/// in flight, the oldest ready task finished first. Items are tasks. Unlike
/// BM_Resolver_SubmitFinishPair's pair, which never queues, tasks here
/// wait in kick-off lists and are granted by releases.
void BM_MasterResolver_FineStreamWindow(benchmark::State& state) {
  constexpr std::uint64_t kWindow = 16;
  workloads::RandomDagConfig cfg;
  cfg.num_tasks = 30'000;
  cfg.addr_space = 48;
  cfg.max_params = 6;
  cfg.write_prob = 0.5;
  cfg.seed = 7;
  const auto tasks = workloads::make_random_dag_trace(cfg);
  // The tables drain after every pass, so one resolver serves them all.
  exec::MasterResolver resolver(exec::MasterResolverConfig{}, kWindow);
  std::vector<std::uint64_t> free_gids;
  std::vector<std::uint64_t> ready(tasks->size());  // FIFO, never wraps
  std::vector<std::uint64_t> granted;
  granted.reserve(kWindow);
  for (auto _ : state) {
    state.PauseTiming();
    free_gids.clear();
    for (std::uint64_t g = 0; g < kWindow; ++g) free_gids.push_back(g);
    std::size_t ready_head = 0;
    std::size_t ready_tail = 0;
    std::uint64_t in_flight = 0;
    state.ResumeTiming();

    // The oldest in-flight task is always ready: its predecessors are
    // older, so finished.
    const auto finish_oldest_ready = [&] {
      const std::uint64_t gid = ready[ready_head++];
      resolver.finish(gid, granted);
      for (const std::uint64_t g : granted) ready[ready_tail++] = g;
      free_gids.push_back(gid);
      --in_flight;
    };
    for (std::size_t k = 0; k < tasks->size(); ++k) {
      if (in_flight == kWindow) finish_oldest_ready();
      const std::uint64_t gid = free_gids.back();
      free_gids.pop_back();
      const auto& rec = (*tasks)[k];
      auto session = resolver.begin_submit(gid, rec.serial, rec.fn, rec.params);
      auto progress = session.advance();
      while (progress == exec::MasterResolver::Progress::kStalled) {
        finish_oldest_ready();
        progress = session.advance();
      }
      if (progress == exec::MasterResolver::Progress::kStructural) {
        state.SkipWithError(session.failure().c_str());
        return;
      }
      ++in_flight;
      if (session.ready()) ready[ready_tail++] = gid;
    }
    while (in_flight > 0) finish_oldest_ready();
    benchmark::DoNotOptimize(ready.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks->size()));
}
BENCHMARK(BM_MasterResolver_FineStreamWindow)->Unit(benchmark::kMillisecond);

/// Same logical work through the unbounded software oracle.
void BM_Oracle_SubmitFinishPair(benchmark::State& state) {
  core::GraphOracle oracle;
  std::uint64_t key = 0;
  const std::vector<core::Param> producer{core::out(0x100, 64)};
  const std::vector<core::Param> consumer{core::in(0x100, 64),
                                          core::out(0x200, 64)};
  for (auto _ : state) {
    const auto p = key++;
    const auto c = key++;
    benchmark::DoNotOptimize(oracle.submit(p, producer));
    benchmark::DoNotOptimize(oracle.submit(c, consumer));
    benchmark::DoNotOptimize(oracle.finish(p));
    benchmark::DoNotOptimize(oracle.finish(c));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Oracle_SubmitFinishPair);

sim::Co<void> ping(sim::Simulator& s, int hops) {
  for (int i = 0; i < hops; ++i) co_await s.delay(sim::ns(1));
}

void BM_SimKernel_EventThroughput(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    s.spawn(ping(s, hops));
    s.run();
    benchmark::DoNotOptimize(s.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * hops);
}
BENCHMARK(BM_SimKernel_EventThroughput)->Arg(1000)->Arg(100000);

sim::Co<void> fifo_producer(sim::Fifo<int>& f, int n) {
  for (int i = 0; i < n; ++i) co_await f.put(i);
}
sim::Co<void> fifo_consumer(sim::Fifo<int>& f, int n) {
  for (int i = 0; i < n; ++i) {
    auto v = co_await f.get();
    benchmark::DoNotOptimize(v);
  }
}

void BM_SimKernel_FifoHandoff(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    sim::Fifo<int> f(s, 8);
    s.spawn(fifo_producer(f, n));
    s.spawn(fifo_consumer(f, n));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimKernel_FifoHandoff)->Arg(10000);

void BM_Runtime_IndependentTaskThroughput(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  constexpr int kTasks = 2000;
  std::vector<long> cells(kTasks);
  for (auto _ : state) {
    starss::Runtime rt(threads);
    for (int i = 0; i < kTasks; ++i) {
      long* cell = &cells[static_cast<std::size_t>(i)];
      rt.submit([cell] { *cell += 1; }, {starss::inout(cell)});
    }
    rt.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_Runtime_IndependentTaskThroughput)->Arg(1)->Arg(2)->Arg(4);

void BM_Runtime_ChainThroughput(benchmark::State& state) {
  constexpr int kTasks = 2000;
  long value = 0;
  for (auto _ : state) {
    starss::Runtime rt(2);
    for (int i = 0; i < kTasks; ++i) {
      rt.submit([&value] { value += 1; }, {starss::inout(&value)});
    }
    rt.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
  benchmark::DoNotOptimize(value);
}
BENCHMARK(BM_Runtime_ChainThroughput);

}  // namespace
}  // namespace nexuspp

BENCHMARK_MAIN();
