// Heap allocations per simulated task on the Nexus++ model.
//
// The simulated Maestro should cost the host a small, fixed number of heap
// allocations per task: every one of them is time the simulator spends
// outside the model. This test replaces the global operator new with a
// counting one, runs nexus++ (the paper's Table IV configuration) over
// Gaussian elimination at 4 and 64 workers, and subtracts what walking an
// identical stream allocates on its own (each record's parameter vector),
// so the bound covers the simulator alone.
//
// The counting operator new is compiled out, and the test skipped, where
// another one is already installed: the checked build's no-alloc tripwire
// (util/invariant.cpp) and the sanitizer runtimes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "nexus/config.hpp"
#include "nexus/system.hpp"
#include "workloads/gaussian.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NEXUSPP_ALLOC_HOOKED 1
#endif
#endif
#if defined(NEXUSPP_CHECKED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define NEXUSPP_ALLOC_HOOKED 1
#endif

#ifndef NEXUSPP_ALLOC_HOOKED

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The unaligned forms; the default nothrow and aligned forms forward to
// these or pair among themselves.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace nexuspp {
namespace {

/// Gaussian elimination 200 x 200: 20 099 tasks.
constexpr std::uint32_t kMatrix = 200;
/// Allocations per task the simulator may make.
constexpr double kBound = 4.5;

template <typename F>
std::uint64_t allocations_during(F&& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::unique_ptr<trace::TaskStream> gaussian() {
  workloads::GaussianConfig cfg;
  cfg.n = kMatrix;
  return workloads::make_gaussian_stream(cfg);
}

double simulator_allocations_per_task(std::uint32_t workers) {
  const std::uint64_t stream = allocations_during([] {
    auto s = gaussian();
    while (s->next().has_value()) {
    }
  });
  nexus::NexusConfig cfg;
  cfg.num_workers = workers;
  std::uint64_t tasks = 0;
  const std::uint64_t run = allocations_during([&] {
    const engine::RunReport report = nexus::run_system(cfg, gaussian());
    tasks = report.tasks_completed;
  });
  EXPECT_EQ(tasks, workloads::gaussian_task_count(kMatrix));
  EXPECT_GT(run, stream);
  return static_cast<double>(run - stream) / static_cast<double>(tasks);
}

}  // namespace
}  // namespace nexuspp

#endif  // NEXUSPP_ALLOC_HOOKED

namespace nexuspp {
namespace {

class SimulatedAllocations : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimulatedAllocations, PerTaskStayWithinBound) {
#ifdef NEXUSPP_ALLOC_HOOKED
  GTEST_SKIP() << "operator new is already replaced in this build";
#else
  const double per_task = simulator_allocations_per_task(GetParam());
  std::printf("nexus++ gaussian n=%u, %u workers: %.3f allocations/task\n",
              kMatrix, GetParam(), per_task);
  EXPECT_LE(per_task, kBound) << "workers=" << GetParam();
#endif
}

INSTANTIATE_TEST_SUITE_P(Workers, SimulatedAllocations,
                         ::testing::Values(4u, 64u));

}  // namespace
}  // namespace nexuspp
