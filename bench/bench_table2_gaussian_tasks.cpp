// Table II of the paper: number of tasks and average task weight (FLOPs)
// of Gaussian elimination with partial pivoting, for matrix dimensions
// 250 / 500 / 1000 / 3000 / 5000.
//
// Counts follow (n^2 + n - 2)/2 exactly; weights follow formula (1). The
// closed-form values are cross-checked against an actual walk of the
// streaming generator (for the sizes that are cheap to walk; all sizes
// with NEXUSPP_BENCH_FULL=1).

#include <iostream>

#include "bench_common.hpp"
#include "workloads/gaussian.hpp"

namespace nexuspp {
namespace {

int run() {
  util::Table table(
      "Table II: Gaussian elimination tasks for different matrix sizes");
  table.header({"matrix dim", "# tasks", "paper # tasks",
                "avg weight (FLOPs)", "paper avg", "generator walk"});

  struct PaperRow {
    std::uint32_t n;
    std::uint64_t tasks;
    double avg;
  };
  // The paper's printed values. Its 3000/5000 averages (2012/3523) cannot
  // be produced by its own formula (1): total FLOPs over the
  // (n^2 + n - 2) / 2 tasks, about 2n/3, is 1999.3/3332.7, and the printed
  // values are 0.6 % and 5.7 % above it. The table prints both.
  const PaperRow paper[] = {{250, 31374, 167.0},
                            {500, 125249, 334.0},
                            {1000, 500499, 667.0},
                            {3000, 4501499, 2012.0},
                            {5000, 12502499, 3523.0}};

  for (const auto& row : paper) {
    const std::uint64_t count = workloads::gaussian_task_count(row.n);
    const double avg = workloads::gaussian_avg_weight(row.n);

    std::string walked = "-";
    if (row.n <= 1000 || bench::full_mode()) {
      workloads::GaussianConfig cfg;
      cfg.n = row.n;
      workloads::GaussianStream stream(cfg);
      std::uint64_t walked_count = 0;
      double walked_flops = 0.0;
      while (auto rec = stream.next()) {
        ++walked_count;
        walked_flops += sim::to_ns(rec->exec_time) * cfg.gflops_per_core;
      }
      walked = util::fmt_count(walked_count) + " tasks, avg " +
               util::fmt_f(walked_flops / static_cast<double>(walked_count),
                           1);
    }

    table.row({std::to_string(row.n), util::fmt_count(count),
               util::fmt_count(row.tasks), util::fmt_f(avg, 2),
               util::fmt_f(row.avg, 0), walked});
  }
  bench::emit_table(table);
  bench::note("Task counts match the paper exactly; average weights match "
              "for 250/500/1000 (rounded) while the paper's 3000/5000 "
              "entries disagree with its own formula (1).\n");
  return 0;
}

}  // namespace
}  // namespace nexuspp

int main() { return nexuspp::run(); }
