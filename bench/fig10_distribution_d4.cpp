// Figure 10: per-processor load distribution at t in {50, 200, 400},
// delta = 4, f in {1.1, 1.8} — the delta = 4 companion of Figure 9.
//
// Paper expectation: "the figures show the large impact of parameter
// delta on the balancing quality, whereas the parameter f plays only a
// minor role, if delta is already large" — spreads here are clearly
// smaller than in Figure 9 and nearly identical between the two f values.
#include <iostream>

#include "bench_common.hpp"

using namespace dlb;

namespace {

double run_figure(ExperimentSpec spec, double f,
                  const dlb::CliOptions& opts) {
  spec.config.f = f;
  const std::vector<std::uint32_t> times{49, 199, 399};
  SnapshotRecorder recorder(spec.processors, times);
  run_experiment(spec, paper_workload_factory(), &recorder);

  std::cout << "-- delta=" << spec.config.delta << " f=" << f << " --\n";
  TextTable table({"proc", "E@50", "min@50", "max@50", "E@200", "min@200",
                   "max@200", "E@400", "min@400", "max@400"});
  for (std::uint32_t p = 0; p < spec.processors; ++p) {
    auto& row = table.row().cell(static_cast<std::size_t>(p));
    for (std::size_t s = 0; s < times.size(); ++s) {
      const RunningMoments& m = recorder.at(s, p);
      row.cell(m.mean(), 1).cell(m.min(), 0).cell(m.max(), 0);
    }
  }
  table.print(std::cout);
  bench::maybe_write_csv(table, opts,
                         "fig10_d4_f" + std::to_string(int(f * 10)));

  double final_spread = 0.0;
  TextTable summary({"snapshot t", "E spread (max-min of means)",
                     "widest run envelope"});
  for (std::size_t s = 0; s < times.size(); ++s) {
    double lo = 1e18;
    double hi = -1e18;
    double widest = 0.0;
    for (std::uint32_t p = 0; p < spec.processors; ++p) {
      const RunningMoments& m = recorder.at(s, p);
      lo = std::min(lo, m.mean());
      hi = std::max(hi, m.mean());
      widest = std::max(widest, m.max() - m.min());
    }
    summary.row()
        .cell(static_cast<std::size_t>(times[s] + 1))
        .cell(hi - lo, 2)
        .cell(widest, 0);
    final_spread = hi - lo;
  }
  std::cout << '\n';
  summary.print(std::cout);
  std::cout << '\n';
  return final_spread;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts = bench::paper_options();
  if (!opts.parse(argc, argv)) return 1;
  ExperimentSpec spec = bench::spec_from(opts);
  spec.config.delta = 4;
  spec.config.borrow_cap = 4;

  bench::print_header(
      "Figure 10 — load distribution across processors, delta = 4",
      "spreads much smaller than Figure 9; f nearly irrelevant at delta=4");
  const double s1 = run_figure(spec, 1.1, opts);
  const double s2 = run_figure(spec, 1.8, opts);
  std::cout << "f impact on final E-spread at delta=4: |"
            << format_double(s1, 2) << " - " << format_double(s2, 2)
            << "| = " << format_double(std::abs(s1 - s2), 2) << '\n';
  return 0;
}
