// Figure 8: balancing quality over time, delta = 4, f in {1.1, 1.8}.
// Same setup as Figure 7 (see fig7_quality_d1.cpp) with delta = 4.
//
// Paper expectation: envelopes tighter than Figure 7's across the board —
// delta has the larger impact on balancing quality; with delta = 4 the
// difference between f = 1.1 and f = 1.8 nearly vanishes.
#include <iostream>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv) {
  CliOptions opts = bench::paper_options();
  if (!opts.parse(argc, argv)) return 1;
  ExperimentSpec spec = bench::spec_from(opts);
  spec.config.delta = 4;
  spec.config.borrow_cap = 4;

  bench::print_header(
      "Figure 8 — balancing quality, delta = 4, f in {1.1, 1.8}",
      "tighter than Figure 7; the f = 1.1 vs 1.8 gap nearly vanishes");

  double worst[2] = {0.0, 0.0};
  int idx = 0;
  for (double f : {1.1, 1.8}) {
    spec.config.f = f;
    LoadSeriesRecorder recorder(spec.horizon);
    run_experiment(spec, paper_workload_factory(), &recorder);
    bench::print_series(recorder, 25,
                        "delta=4 f=" + format_double(f, 1) + " ("
                            + std::to_string(spec.runs) + " runs)",
                        &opts,
                        "fig8_d4_f" + std::to_string(int(f * 10)));
    bench::plot_series(recorder, "delta=4 f=" + format_double(f, 1));
    for (std::uint32_t t = 100; t < spec.horizon; ++t) {
      const double avg = recorder.series().mean(t);
      if (avg <= 0) continue;
      worst[idx] =
          std::max(worst[idx], (recorder.series().max(t) - avg) / avg);
    }
    std::cout << "max relative deviation of the envelope (t >= 100): "
              << format_double(worst[idx], 3) << "\n\n";
    ++idx;
  }
  std::cout << "f-impact at delta=4 (should be small): |"
            << format_double(worst[0], 3) << " - "
            << format_double(worst[1], 3) << "| = "
            << format_double(std::abs(worst[0] - worst[1]), 3) << '\n';
  return 0;
}
