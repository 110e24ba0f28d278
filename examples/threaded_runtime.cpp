// The balancer as a real concurrent system: one thread per processor
// (a rank of the src/mp World), message passing over its Comm,
// three-message balancing transactions — the shape a distributed-memory
// implementation has, compressed onto one machine.
//
//   $ ./build/examples/threaded_runtime
//
// Demand is recorded into a trace first so the sequential reference
// simulator and the threaded runtime answer for exactly the same
// workload; the example prints both and checks conservation.
#include <iostream>

#include "core/system.hpp"
#include "metrics/imbalance.hpp"
#include "runtime/threaded_system.hpp"
#include "support/table.hpp"

int main() {
  using namespace dlb;

  const std::uint32_t processors = 8;
  const std::uint32_t steps = 400;

  // Record the demand once.
  Rng rng(11);
  const Workload wl =
      Workload::paper_benchmark(processors, steps, WorkloadParams{}, rng);
  Rng trace_rng(12);
  const Trace trace = Trace::record(wl, trace_rng);

  std::cout << "Same demand trace, two implementations of the balancing "
               "principle:\n\n";

  // 1. The threaded message-passing runtime.
  ThreadedConfig tc;
  tc.f = 1.2;
  tc.delta = 2;
  tc.seed = 13;
  ThreadedSystem threaded(processors, tc);
  threaded.run(trace);
  const ThreadedStats& ts = threaded.stats();

  // 2. The sequential reference simulator (with the full d/b ledger).
  BalancerConfig bc;
  bc.f = 1.2;
  bc.delta = 2;
  System sequential(processors, bc, 13);
  sequential.run(trace);
  sequential.check_invariants();

  std::int64_t threaded_total = 0;
  for (std::int64_t l : threaded.final_loads()) threaded_total += l;

  TextTable table({"metric", "threaded runtime", "sequential simulator"});
  table.row()
      .cell("generated")
      .cell(static_cast<unsigned long long>(ts.generated))
      .cell(static_cast<unsigned long long>(sequential.total_generated()));
  table.row()
      .cell("consumed")
      .cell(static_cast<unsigned long long>(ts.consumed))
      .cell(static_cast<unsigned long long>(sequential.total_consumed()));
  table.row()
      .cell("final total load")
      .cell(static_cast<long long>(threaded_total))
      .cell(static_cast<long long>(sequential.total_load()));
  table.row()
      .cell("balance operations")
      .cell(static_cast<unsigned long long>(ts.balance_ops))
      .cell(static_cast<unsigned long long>(
          sequential.balance_operations()));
  table.row()
      .cell("messages")
      .cell(static_cast<unsigned long long>(ts.messages))
      .cell(static_cast<unsigned long long>(
          sequential.costs().totals().messages));
  const auto r_thr = measure_imbalance(threaded.final_loads());
  const auto r_seq = measure_imbalance(sequential.loads());
  table.row()
      .cell("final max/avg imbalance")
      .cell(r_thr.max_over_avg, 3)
      .cell(r_seq.max_over_avg, 3);
  table.row()
      .cell("refused invitations")
      .cell(static_cast<unsigned long long>(ts.refusals))
      .cell("n/a (atomic ops)");
  table.print(std::cout);

  std::cout << "\nConservation holds in both: final load == generated - "
               "consumed.  The two disagree on exact loads (thread "
               "interleaving is nondeterministic) but agree on the "
               "balance quality.\n";
  return 0;
}
