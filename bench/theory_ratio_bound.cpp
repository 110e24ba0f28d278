// Theorem 4: in the full n-processor model with borrowing,
//   E(l_i^t) <= f^2 * delta/(delta+1-f) * (E(l_j^t) + C)
// for ALL processor pairs (i, j) and times t.
//
// We measure expected per-processor loads on the §7 workload at several
// snapshot times and report the worst measured "bound usage":
//   usage = max_i E(l_i) / (factor * (min_j E(l_j) + C)),
// which must stay <= 1 (typically far below — the theorem is loose).
#include <iostream>

#include "bench_common.hpp"
#include "theory/bounds.hpp"

using namespace dlb;

int main(int argc, char** argv) {
  CliOptions opts = bench::paper_options();
  if (!opts.parse(argc, argv)) return 1;
  ExperimentSpec base = bench::spec_from(opts);

  bench::print_header(
      "Theorem 4 — pairwise expected-load ratio bound (full model)",
      "max E(l_i) <= f^2 * d/(d+1-f) * (min E(l_j) + C) at every time");

  TextTable table({"f", "delta", "C", "t", "max E", "min E", "factor",
                   "bound", "usage"});
  struct Cfg {
    double f;
    std::uint32_t delta;
    std::uint32_t cap;
  };
  for (const Cfg& c : {Cfg{1.1, 1, 4}, Cfg{1.8, 1, 4}, Cfg{1.1, 4, 4},
                       Cfg{1.8, 4, 4}, Cfg{1.4, 2, 16}}) {
    ExperimentSpec spec = base;
    spec.config.f = c.f;
    spec.config.delta = c.delta;
    spec.config.borrow_cap = c.cap;
    const std::vector<std::uint32_t> times{49, 199, 399};
    SnapshotRecorder recorder(spec.processors, times);
    run_experiment(spec, paper_workload_factory(), &recorder);
    const double factor = theorem4_factor(c.delta, c.f);
    for (std::size_t s = 0; s < times.size(); ++s) {
      double max_mean = 0.0;
      double min_mean = 1e18;
      for (std::uint32_t p = 0; p < spec.processors; ++p) {
        const double m = recorder.at(s, p).mean();
        max_mean = std::max(max_mean, m);
        min_mean = std::min(min_mean, m);
      }
      const double bound = factor * (min_mean + c.cap);
      table.row()
          .cell(c.f, 1)
          .cell(static_cast<std::size_t>(c.delta))
          .cell(static_cast<std::size_t>(c.cap))
          .cell(static_cast<std::size_t>(times[s] + 1))
          .cell(max_mean, 2)
          .cell(min_mean, 2)
          .cell(factor, 2)
          .cell(bound, 2)
          .cell(max_mean / bound, 3);
    }
  }
  table.print(std::cout);
  std::cout << "\nusage <= 1 everywhere confirms the Theorem 4 envelope "
               "holds in the full simulation.\n";
  return 0;
}
