// Figure 7: balancing quality over time, delta = 1, f in {1.1, 1.8}.
//
// 64 processors, 500 global steps, the §7 phase workload
// (g in [0.1,0.9], c in [0.1,0.7], phase length in [150,400]), C = 4,
// 100 runs.  For each time step: the average load of a processor and the
// most extreme single-processor loads ever observed across all runs.
//
// Paper expectation: min/max envelopes hug the average; f = 1.1 gives a
// visibly tighter envelope than f = 1.8.
#include <iostream>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv) {
  CliOptions opts = bench::paper_options();
  if (!opts.parse(argc, argv)) return 1;
  ExperimentSpec spec = bench::spec_from(opts);
  spec.config.delta = 1;
  spec.config.borrow_cap = 4;

  bench::print_header(
      "Figure 7 — balancing quality, delta = 1, f in {1.1, 1.8}",
      "min/max envelopes stay close to the average; smaller f = tighter");

  for (double f : {1.1, 1.8}) {
    spec.config.f = f;
    LoadSeriesRecorder recorder(spec.horizon);
    run_experiment(spec, paper_workload_factory(), &recorder);
    bench::print_series(recorder, 25,
                        "delta=1 f=" + format_double(f, 1) + " ("
                            + std::to_string(spec.runs) + " runs)",
                        &opts,
                        "fig7_d1_f" + std::to_string(int(f * 10)));
    bench::plot_series(recorder, "delta=1 f=" + format_double(f, 1));
    // Envelope width summary for quick comparison.
    double worst = 0.0;
    for (std::uint32_t t = 100; t < spec.horizon; ++t) {
      const double avg = recorder.series().mean(t);
      if (avg <= 0) continue;
      worst = std::max(worst, (recorder.series().max(t) - avg) / avg);
    }
    std::cout << "max relative deviation of the envelope (t >= 100): "
              << format_double(worst, 3) << "\n\n";
  }
  return 0;
}
