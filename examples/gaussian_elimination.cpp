// Gaussian elimination with partial pivoting — the paper's LINPACK-like
// validation workload (Fig. 5) — computed for real on the StarSs-style
// runtime and verified against a serial reference.
//
// Task structure follows the paper: at step i a pivot task handles the
// pivot selection and row swap (inout on the whole matrix column-state
// token plus the pivot row), and one update task per remaining row
// eliminates that row's leading coefficient (in: pivot row, inout: the
// row). The row-level accesses reproduce the published dependency shape:
// all of step i's updates wait for step i's pivot task (its kick-off
// fan-out is n - i in the hardware), and step i+1's pivot waits for the
// step-i update of its row.
//
// Usage: gaussian_elimination [--n=N] [--threads=T]

#include <cmath>
#include <iostream>
#include <random>
#include <thread>
#include <vector>

#include "runtime/runtime.hpp"

namespace starss = nexuspp::starss;
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

struct Matrix {
  int n;
  std::vector<double> a;  ///< n x (n+1) augmented matrix, row-major

  explicit Matrix(int dim) : n(dim), a(static_cast<std::size_t>(dim) *
                                       static_cast<std::size_t>(dim + 1)) {}
  double* row(int i) {
    return a.data() + static_cast<std::size_t>(i) *
                          static_cast<std::size_t>(n + 1);
  }
};

Matrix random_system(int n, std::uint64_t seed) {
  Matrix m(n);
  nexuspp::util::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double diag = 0.0;
    for (int j = 0; j < n; ++j) {
      m.row(i)[j] = rng.uniform(-1.0, 1.0);
      diag += std::abs(m.row(i)[j]);
    }
    m.row(i)[i] += diag;  // diagonally dominant: well-conditioned
    m.row(i)[n] = rng.uniform(-1.0, 1.0);
  }
  return m;
}

/// Serial reference: forward elimination with partial pivoting + back
/// substitution.
std::vector<double> solve_serial(Matrix m) {
  const int n = m.n;
  for (int i = 0; i < n; ++i) {
    int pivot = i;
    for (int r = i + 1; r < n; ++r) {
      if (std::abs(m.row(r)[i]) > std::abs(m.row(pivot)[i])) pivot = r;
    }
    for (int c = i; c <= n; ++c) std::swap(m.row(i)[c], m.row(pivot)[c]);
    for (int r = i + 1; r < n; ++r) {
      const double f = m.row(r)[i] / m.row(i)[i];
      for (int c = i; c <= n; ++c) m.row(r)[c] -= f * m.row(i)[c];
    }
  }
  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    double sum = m.row(i)[n];
    for (int c = i + 1; c < n; ++c) {
      sum -= m.row(i)[c] * x[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(i)] = sum / m.row(i)[i];
  }
  return x;
}

/// Task-parallel forward elimination on the StarSs runtime.
///
/// The pivot-search-and-swap step must see column i of all rows >= i, so
/// the pivot task declares `inout` on a per-phase `panel` token in
/// addition to the pivot row — the same serialization point Fig. 5 shows
/// (only one task can execute between update waves). Update tasks of step
/// i read the pivot row and the token and own their row exclusively.
std::vector<double> solve_tasks(Matrix& m, unsigned threads) {
  const int n = m.n;
  starss::Runtime rt(threads);
  // One token per elimination step. Step i's updates *read* token[i]
  // (RAW on the pivot task that writes it); the next pivot *writes*
  // token[i] again, giving it a WAR dependency on every step-i update —
  // so waves serialize exactly as in Fig. 5: pivot, update wave, pivot...
  std::vector<int> token(static_cast<std::size_t>(n), 0);

  for (int i = 0; i < n; ++i) {
    // Pivot task: search column i (rows i..n-1), swap. It owns the whole
    // remaining panel exclusively because the previous update wave has
    // drained (WAR on token[i-1]).
    std::vector<starss::Access> pivot_acc;
    pivot_acc.push_back(starss::inout(&token[static_cast<std::size_t>(i)]));
    if (i > 0) {
      pivot_acc.push_back(
          starss::inout(&token[static_cast<std::size_t>(i - 1)]));
    }
    rt.submit(
        [&m, i, n] {
          int pivot = i;
          for (int r = i + 1; r < n; ++r) {
            if (std::abs(m.row(r)[i]) > std::abs(m.row(pivot)[i])) {
              pivot = r;
            }
          }
          for (int c = i; c <= n; ++c) {
            std::swap(m.row(i)[c], m.row(pivot)[c]);
          }
        },
        std::move(pivot_acc));

    // Update tasks: one per remaining row; they read the pivot row (RAW on
    // the pivot task via the token) and write their own row.
    for (int r = i + 1; r < n; ++r) {
      rt.submit(
          [&m, i, r, n] {
            const double f = m.row(r)[i] / m.row(i)[i];
            for (int c = i; c <= n; ++c) m.row(r)[c] -= f * m.row(i)[c];
          },
          {starss::in(&token[static_cast<std::size_t>(i)]),
           starss::inout(m.row(r), static_cast<std::size_t>(n + 1))});
    }
  }
  rt.wait_all();

  std::vector<double> x(static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    double sum = m.row(i)[n];
    for (int c = i + 1; c < n; ++c) {
      sum -= m.row(i)[c] * x[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(i)] = sum / m.row(i)[i];
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  nexuspp::util::Flags flags(argc, argv);
  const int n = static_cast<int>(flags.get_int("n", 250));
  const auto threads = static_cast<unsigned>(flags.get_int(
      "threads", static_cast<std::int64_t>(
                     std::thread::hardware_concurrency())));

  std::cout << "Gaussian elimination with partial pivoting, n = " << n
            << ", " << threads << " threads\n";
  std::cout << "task graph: " << (static_cast<long>(n) * n + n - 2) / 2
            << " tasks (paper Fig. 5 / Table II)\n";

  Matrix system = random_system(n, 42);
  const auto reference = solve_serial(system);
  auto x = solve_tasks(system, threads);

  // Verify: solutions must agree to numerical precision.
  double max_diff = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(x[i] - reference[i]));
  }
  std::cout << "max |x_tasks - x_serial| = " << max_diff << "\n";
  if (max_diff > 1e-9) {
    std::cerr << "FAILED: task-parallel solution diverged from serial!\n";
    return 1;
  }
  std::cout << "result verified: task-parallel elimination matches the "
               "serial solver.\n";
  return 0;
}
