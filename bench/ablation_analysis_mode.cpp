// Ablation [D7]: the practical balancing operation (every class dealt over
// all participants, as in the implementations of [7]) versus the
// analysis-mode variant (§4: a non-initiating participant's own class is
// balanced only among the *other* participants, keeping its candidates
// random for the proof).
//
// Expectation: both conserve load and balance well; analysis mode pays a
// little quality (a participant's own class cannot flow to it during
// others' operations) for proof cleanliness — the practical variant is
// the one the paper's applications ship.
#include <iostream>

#include "bench_common.hpp"
#include "metrics/imbalance.hpp"
#include "support/stats.hpp"

using namespace dlb;

int main(int argc, char** argv) {
  CliOptions opts = bench::paper_options();
  if (!opts.parse(argc, argv)) return 1;
  ExperimentSpec base = bench::spec_from(opts);
  base.runs = std::min<std::uint32_t>(base.runs, 40);

  bench::print_header(
      "Ablation [D7] — practical vs analysis-mode class dealing",
      "similar balance; analysis mode slightly looser, same conservation");

  TextTable table({"mode", "f", "delta", "E-spread @end", "widest envelope",
                   "avg balance ops/run", "avg packets moved/run"});
  for (bool analysis : {false, true}) {
    for (double f : {1.1, 1.8}) {
      ExperimentSpec spec = base;
      spec.config.f = f;
      spec.config.delta = 2;
      spec.config.analysis_mode = analysis;
      SnapshotRecorder snap(spec.processors, {spec.horizon - 1});
      obs::MetricsRegistry registry;
      run_experiment(spec, paper_workload_factory(), &snap, &registry);
      const auto per_run = [&](const char* counter) {
        return static_cast<double>(registry.counter(counter).value()) /
               static_cast<double>(spec.runs);
      };
      double lo = 1e18;
      double hi = -1e18;
      double widest = 0.0;
      for (std::uint32_t p = 0; p < spec.processors; ++p) {
        const RunningMoments& m = snap.at(0, p);
        lo = std::min(lo, m.mean());
        hi = std::max(hi, m.mean());
        widest = std::max(widest, m.max() - m.min());
      }
      table.row()
          .cell(analysis ? "analysis" : "practical")
          .cell(f, 1)
          .cell(static_cast<std::size_t>(spec.config.delta))
          .cell(hi - lo, 2)
          .cell(widest, 0)
          .cell(per_run("system.balance_ops"), 1)
          .cell(per_run("system.packets_moved"), 0);
    }
  }
  table.print(std::cout);
  return 0;
}
