// Figure 9: per-processor load distribution at t in {50, 200, 400},
// delta = 1, f in {1.1, 1.8} (64 processors, §7 workload, 100 runs).
//
// The paper plots, for every one of the 64 processors, the expected load
// and the min/max load observed over all runs at the three snapshot
// times.  We print the same data (one row per processor) plus a compact
// spread summary per snapshot.
//
// Paper expectation: per-processor expectations are nearly flat across
// the machine despite the very inhomogeneous phase workload; the spread
// is wider for f = 1.8 than for f = 1.1.
#include <iostream>

#include "bench_common.hpp"

using namespace dlb;

namespace {

void run_figure(ExperimentSpec spec, double f,
                const dlb::CliOptions& opts) {
  spec.config.f = f;
  const std::vector<std::uint32_t> times{49, 199, 399};  // 0-based steps
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
                         "fig9_d1_f" + std::to_string(int(f * 10)));

  // Per-processor expected-load curves (x = processor index), the visual
  // of the paper's figure.
  {
    std::vector<PlotSeries> curves;
    const char* labels[] = {"E@50", "E@200", "E@400"};
    const char glyphs[] = {'a', 'b', 'c'};
    for (std::size_t snap = 0; snap < times.size(); ++snap) {
      PlotSeries series{labels[snap], glyphs[snap], {}};
      for (std::uint32_t p = 0; p < spec.processors; ++p)
        series.values.push_back(recorder.at(snap, p).mean());
      curves.push_back(std::move(series));
    }
    PlotOptions plot_opts;
    plot_opts.x_label = "processor";
    plot_opts.y_label = "expected load per processor";
    render_plot(std::cout, curves, plot_opts);
  }

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
  }
  std::cout << '\n';
  summary.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts = bench::paper_options();
  if (!opts.parse(argc, argv)) return 1;
  ExperimentSpec spec = bench::spec_from(opts);
  spec.config.delta = 1;
  spec.config.borrow_cap = 4;

  bench::print_header(
      "Figure 9 — load distribution across processors, delta = 1",
      "per-processor expected loads nearly flat; spread wider at f = 1.8");
  for (double f : {1.1, 1.8}) run_figure(spec, f, opts);
  return 0;
}
