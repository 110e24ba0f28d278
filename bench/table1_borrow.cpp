// Table 1: borrow-protocol activity as a function of the borrow cap C,
// for C in {4, 8, 16, 32}, f = 1.1, delta = 1, on the §7 benchmark
// workload (64 processors, 500 steps, 100 runs).
//
// Paper values (per-run averages):
//            C=4      C=8      C=16     C=32
//   total    107.777  109.451  109.661  109.616
//   remote     3.949    0.333    0.033    0.032
//   fail       0.298    0.019    0.016    0.019
//   decrease   3.838    1.899    1.609    1.637
//
// Expectation for the reproduction (shape, not absolutes): total borrow is
// large and nearly independent of C; remote borrow and borrow fail drop
// steeply as C grows; decrease simulations fall toward a floor.
#include <iostream>

#include "bench_common.hpp"

using namespace dlb;

int main(int argc, char** argv) {
  CliOptions opts = bench::paper_options();
  if (!opts.parse(argc, argv)) return 1;
  ExperimentSpec spec = bench::spec_from(opts);
  spec.config.f = 1.1;
  spec.config.delta = 1;

  bench::print_header(
      "Table 1 — borrowing activity vs parameter C (f=1.1, delta=1)",
      "total borrow ~const in C; remote borrow & fail drop steeply with C");

  const std::uint32_t caps[] = {4, 8, 16, 32};
  struct Row {
    const char* label;
    const char* counter;  // the registry counter System bumps per event
  };
  const Row rows[] = {{"total borrow", "system.borrow.total"},
                      {"remote borrow", "system.borrow.remote"},
                      {"borrow fail", "system.borrow.fail"},
                      {"decrease sim", "system.borrow.decrease_sim"}};
  // Per-run averages, [row][C].  One registry per C: run_experiment
  // attaches it to every run, so its counters sum over the runs.
  double avg[4][4];
  for (std::size_t i = 0; i < 4; ++i) {
    spec.config.borrow_cap = caps[i];
    obs::MetricsRegistry registry;
    run_experiment(spec, paper_workload_factory(), nullptr, &registry);
    for (std::size_t r = 0; r < 4; ++r)
      avg[r][i] =
          static_cast<double>(registry.counter(rows[r].counter).value()) /
          static_cast<double>(spec.runs);
  }

  // The paper's magnitudes are recovered as per-processor averages
  // (their totals over 64 processors would be ~64x larger than Table 1's
  // entries); we print both normalizations.
  TextTable per_proc({"counter (avg/run/processor)", "C=4", "C=8", "C=16",
                      "C=32"});
  TextTable totals({"counter (avg/run, whole machine)", "C=4", "C=8",
                    "C=16", "C=32"});
  const double n = spec.processors;
  for (std::size_t r = 0; r < 4; ++r) {
    auto& per_proc_row = per_proc.row().cell(rows[r].label);
    auto& totals_row = totals.row().cell(rows[r].label);
    for (std::size_t i = 0; i < 4; ++i) {
      per_proc_row.cell(avg[r][i] / n, 3);
      totals_row.cell(avg[r][i], 3);
    }
  }
  per_proc.print(std::cout);
  std::cout << '\n';
  totals.print(std::cout);
  bench::maybe_write_csv(per_proc, opts, "table1_per_processor");
  bench::maybe_write_csv(totals, opts, "table1_totals");

  std::cout << "\npaper (for shape comparison):\n"
            << "  total borrow   107.777  109.451  109.661  109.616\n"
            << "  remote borrow    3.949    0.333    0.033    0.032\n"
            << "  borrow fail      0.298    0.019    0.016    0.019\n"
            << "  decrease sim     3.838    1.899    1.609    1.637\n";
  return 0;
}
