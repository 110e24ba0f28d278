// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload paper|serving --seed N --seconds S
//             --trace 0|1 [--scale full|tiny] [--commit SHA]
//             [--spans-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation
// attached; --trace 1 is the separate traced run that yields the
// per-layer metrics.  Normally launched through perfbench/run.py, which
// builds this binary from the checked-out sources first.
#include <malloc.h>

#include <exception>
#include <iostream>
#include <string>

#include "dlb_bench.hpp"
#include "report.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  // Timings from an unoptimised or assert-enabled build are not
  // comparable with anything; refuse rather than report them.
  std::cerr << "perfbench: refusing to run from a non-optimised build ("
            << PERFBENCH_BUILD_TYPE << ")\n";
  return 3;
#endif
  // Every pass and set-up sweep builds fresh Systems and Workloads.  Keep
  // freed memory in the heap (no mmap'd chunks, no trimming) so they
  // reuse warm pages instead of timing the kernel's page-fault path,
  // whose cost moves with whatever else the host is doing.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  dlb::CliOptions cli;
  cli.add_string("workload", "", "paper | serving")
      .add_int("seed", 1, "input seed")
      .add_double("seconds", 10.0, "measurement window per run")
      .add_int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
      .add_string("scale", "full", "full | tiny (tiny: the self-tests)")
      .add_string("commit", "unknown", "source revision, for provenance")
      .add_string("spans-dir", "", "where the traced run writes its spans");
  if (!cli.parse(argc, argv)) return 2;

  perfbench::Options opts;
  opts.workload = cli.get_string("workload");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opts.seconds = cli.get_double("seconds");
  opts.trace = cli.get_int("trace") != 0;
  opts.tiny = cli.get_string("scale") == "tiny";
  opts.spans_dir = cli.get_string("spans-dir");
  if (cli.get_string("scale") != "full" && !opts.tiny) {
    std::cerr << "perfbench: --scale must be full or tiny\n";
    return 2;
  }
  if (opts.seconds <= 0.0) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return 2;
  }

  perfbench::Report report;
  perfbench::Provenance prov;
  prov.workload = opts.workload;
  prov.seed = opts.seed;
  prov.seconds = opts.seconds;
  prov.trace = opts.trace ? 1 : 0;
  prov.scale = opts.tiny ? "tiny" : "full";
  prov.commit = cli.get_string("commit");
  try {
    if (!perfbench::run_simulation(opts, report, prov)) {
      std::cerr << "perfbench: unknown --workload '" << opts.workload
                << "' (expected paper|serving)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  report.print(std::cout, prov);
  return report.ok() ? 0 : 1;
}
