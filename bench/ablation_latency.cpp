// Ablation: what happens to the paper's guarantee when balancing
// operations are NOT instantaneous.
//
// §2 justifies constant-time balancing by wormhole routing; the
// asynchronous event-driven simulator makes the three-message transaction
// explicit and charges hop_latency x distance per message.  While
// messages fly, demand keeps arriving, partners are locked, and
// overlapping transactions refuse each other.  This bench sweeps the hop
// latency on a 64-node torus and hypercube and reports balance quality
// and protocol friction.
//
// Expectation: quality degrades gracefully with latency (stale
// assignments, deferred demand) but remains far better than no
// balancing; low-diameter topologies degrade less.
#include <iostream>

#include "bench_common.hpp"
#include "core/async_system.hpp"
#include "metrics/imbalance.hpp"
#include "support/stats.hpp"

using namespace dlb;

int main(int argc, char** argv) {
  CliOptions opts;
  opts.add_int("steps", 400, "application time steps")
      .add_int("runs", 10, "runs per configuration")
      .add_int("seed", 1993, "master seed");
  if (!opts.parse(argc, argv)) return 1;
  const auto steps = static_cast<std::uint32_t>(opts.get_int("steps"));
  const auto runs = static_cast<std::uint32_t>(opts.get_int("runs"));
  Rng master(static_cast<std::uint64_t>(opts.get_int("seed")));

  bench::print_header(
      "Ablation — message latency vs the O(1)-operation assumption (§2)",
      "quality degrades gracefully with hop latency; low diameter helps");

  TextTable table({"topology", "hop latency", "final CoV", "balance ops",
                   "refused txns", "refusals", "deferred demand"});
  const Topology topologies[] = {Topology::torus2d(8, 8),
                                 Topology::hypercube(6)};
  for (const Topology& topo : topologies) {
    for (double latency : {0.0, 0.1, 0.5, 2.0, 8.0}) {
      RunningMoments cov;
      RunningMoments ops;
      RunningMoments refused_txns;
      RunningMoments refusals;
      RunningMoments deferred;
      for (std::uint32_t r = 0; r < runs; ++r) {
        Rng wl_rng = master.split();
        Rng trace_rng = master.split();
        const Workload wl = Workload::paper_benchmark(
            topo.size(), steps, WorkloadParams{}, wl_rng);
        const Trace trace = Trace::record(wl, trace_rng);
        AsyncConfig cfg;
        cfg.f = 1.1;
        cfg.delta = 2;
        cfg.hop_latency = latency;
        cfg.seed = master.next();
        AsyncSystem sys(topo, cfg);
        sys.run(trace);
        cov.add(measure_imbalance(sys.loads()).cov);
        ops.add(static_cast<double>(sys.stats().balance_ops));
        refused_txns.add(static_cast<double>(sys.stats().refused_txns));
        refusals.add(static_cast<double>(sys.stats().refusals));
        deferred.add(static_cast<double>(sys.stats().deferred_events));
      }
      table.row()
          .cell(to_string(topo.kind()))
          .cell(latency, 1)
          .cell(cov.mean(), 3)
          .cell(ops.mean(), 0)
          .cell(refused_txns.mean(), 0)
          .cell(refusals.mean(), 0)
          .cell(deferred.mean(), 0);
    }
  }
  table.print(std::cout);
  return 0;
}
