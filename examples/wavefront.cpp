// Wavefront example: the paper's motivating H.264 macroblock-decoding
// pattern (Listing 1) as *real computation* on the StarSs-style runtime.
//
// Each "macroblock" task consumes its left and up-right neighbours,
// exactly like `decode(X[i][j-1], X[i-1][j+1], X[i][j])`. Here the decode
// kernel is a small deterministic mixing function so the result can be
// verified against a serial run.
//
// Usage: wavefront [--rows=N] [--cols=M] [--threads=T]

#include <chrono>
#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace starss = nexuspp::starss;
#include "util/flags.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Stand-in for the decode kernel: mixes the block's own state with the
/// neighbours it depends on. Deliberately a few microseconds of work so
/// the wavefront parallelism is observable.
std::uint64_t decode(std::uint64_t self, std::uint64_t left,
                     std::uint64_t upright) {
  std::uint64_t h = self ^ (left * 0x9E3779B97F4A7C15ULL) ^
                    (upright * 0xC2B2AE3D27D4EB4FULL);
  for (int round = 0; round < 12000; ++round) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 29;
  }
  return h;
}

struct Grid {
  int rows;
  int cols;
  std::vector<std::uint64_t> cells;

  Grid(int r, int c)
      : rows(r), cols(c),
        cells(static_cast<std::size_t>(r) * static_cast<std::size_t>(c)) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cells[i] = 0x1234 + i;
    }
  }
  std::uint64_t& at(int i, int j) {
    return cells[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(cols) +
                 static_cast<std::size_t>(j)];
  }
};

void run_serial(Grid& g) {
  for (int i = 0; i < g.rows; ++i) {
    for (int j = 0; j < g.cols; ++j) {
      const std::uint64_t left = j > 0 ? g.at(i, j - 1) : 0;
      const std::uint64_t upright =
          (i > 0 && j + 1 < g.cols) ? g.at(i - 1, j + 1) : 0;
      g.at(i, j) = decode(g.at(i, j), left, upright);
    }
  }
}

void run_tasks(Grid& g, unsigned threads) {
  starss::Runtime rt(threads);
  for (int i = 0; i < g.rows; ++i) {
    for (int j = 0; j < g.cols; ++j) {
      std::vector<starss::Access> acc;
      if (j > 0) acc.push_back(starss::in(&g.at(i, j - 1)));
      if (i > 0 && j + 1 < g.cols) {
        acc.push_back(starss::in(&g.at(i - 1, j + 1)));
      }
      acc.push_back(starss::inout(&g.at(i, j)));
      rt.submit(
          [&g, i, j] {
            const std::uint64_t left = j > 0 ? g.at(i, j - 1) : 0;
            const std::uint64_t upright =
                (i > 0 && j + 1 < g.cols) ? g.at(i - 1, j + 1) : 0;
            g.at(i, j) = decode(g.at(i, j), left, upright);
          },
          acc);
    }
  }
  rt.wait_all();
}

}  // namespace

int main(int argc, char** argv) try {
  nexuspp::util::Flags flags(argc, argv);
  const int rows = static_cast<int>(flags.get_count("rows", 120));
  const int cols = static_cast<int>(flags.get_count("cols", 68));
  const unsigned threads =
      flags.get_count("threads", std::thread::hardware_concurrency());

  std::cout << "Wavefront " << rows << " x " << cols << " ("
            << rows * cols << " tasks) on " << threads << " threads\n";

  Grid serial(rows, cols);
  const auto t0 = Clock::now();
  run_serial(serial);
  const auto serial_time = Clock::now() - t0;

  Grid parallel(rows, cols);
  const auto t1 = Clock::now();
  run_tasks(parallel, threads);
  const auto parallel_time = Clock::now() - t1;

  if (parallel.cells != serial.cells) {
    std::cerr << "FAILED: task-parallel result differs from serial!\n";
    return 1;
  }

  const auto ms = [](auto d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  std::cout << "serial:   " << ms(serial_time) << " ms\n";
  std::cout << "tasks:    " << ms(parallel_time) << " ms  (speedup "
            << ms(serial_time) / ms(parallel_time) << "x)\n";
  std::cout << "result verified: task-parallel wavefront == serial.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
