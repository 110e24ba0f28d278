// Failure-tolerant Invite/Accept/Assign: conservation modulo the
// declared-loss ledger under lossy links and scheduled crashes, clean
// rollbacks on timeouts, blacklisting of dead partners, and the
// metrics surface for the robustness counters.
#include "runtime/threaded_system.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace dlb {
namespace {

using namespace std::chrono_literals;

Trace make_trace(std::uint32_t n, std::uint32_t horizon, std::uint64_t seed) {
  Rng rng(seed);
  return Trace::record(Workload::hotspot(n, horizon, 1, 0.9, 0.2), rng);
}

ThreadedConfig faulty_cfg(double drop, std::uint64_t seed = 11) {
  ThreadedConfig cfg;
  cfg.f = 1.2;
  cfg.delta = 2;
  cfg.seed = seed;
  cfg.faults.seed = seed * 1000 + 1;
  cfg.faults.default_link.drop = drop;
  cfg.txn_timeout = 10ms;
  return cfg;
}

/// Conservation modulo declared loss, the central robustness invariant:
/// sum(final) == generated - consumed - lost_load.
void expect_conserved(const ThreadedSystem& sys) {
  std::int64_t total = 0;
  for (std::int64_t l : sys.final_loads()) total += l;
  const ThreadedStats& stats = sys.stats();
  EXPECT_EQ(total, static_cast<std::int64_t>(stats.generated) -
                       static_cast<std::int64_t>(stats.consumed) -
                       stats.lost_load);
}

TEST(FaultTolerantRuntime, InertPlanKeepsLedgerClean) {
  ThreadedConfig cfg;
  cfg.f = 1.2;
  cfg.delta = 2;
  ThreadedSystem sys(8, cfg);
  sys.run(make_trace(8, 300, 3));
  expect_conserved(sys);
  const ThreadedStats& stats = sys.stats();
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.lost_packets, 0u);
  EXPECT_EQ(stats.ranks_dead, 0u);
  EXPECT_EQ(stats.lost_load, 0);
  EXPECT_GT(stats.balance_ops, 0u);
  for (std::uint32_t p = 0; p < 8; ++p) EXPECT_FALSE(sys.processor_dead(p));
}

TEST(FaultTolerantRuntime, ConservesUnderModerateDrop) {
  ThreadedSystem sys(8, faulty_cfg(0.10));
  sys.run(make_trace(8, 400, 4));
  expect_conserved(sys);
  EXPECT_GT(sys.stats().balance_ops, 0u);
}

TEST(FaultTolerantRuntime, ConservesUnderHeavyDrop) {
  // 20% loss: many transactions abort or lose their Assign, yet the
  // ledger must still close exactly.
  ThreadedSystem sys(8, faulty_cfg(0.20));
  sys.run(make_trace(8, 400, 5));
  expect_conserved(sys);
  const ThreadedStats& stats = sys.stats();
  EXPECT_GT(stats.lost_packets, 0u);
  // Dropped invites/accepts/assigns must surface as expired waits.
  EXPECT_GT(stats.timeouts, 0u);
}

TEST(FaultTolerantRuntime, ConservesUnderDuplicationAndDelay) {
  ThreadedConfig cfg = faulty_cfg(0.05);
  cfg.faults.default_link.duplicate = 0.10;
  cfg.faults.default_link.delay = 0.10;
  ThreadedSystem sys(8, cfg);
  sys.run(make_trace(8, 400, 6));
  expect_conserved(sys);
}

TEST(FaultTolerantRuntime, CrashedProcessorIsJournalRecovered) {
  ThreadedConfig cfg = faulty_cfg(0.0);
  cfg.faults.kill(3, 200);
  cfg.faults.journal_interval = 10;
  ThreadedSystem sys(8, cfg);
  sys.run(make_trace(8, 400, 7));
  expect_conserved(sys);
  EXPECT_TRUE(sys.processor_dead(3));
  EXPECT_EQ(sys.stats().ranks_dead, 1u);
  EXPECT_TRUE(sys.journal().crashed(3));
  EXPECT_EQ(sys.final_loads()[3], sys.journal().recovered_load(3));
  for (std::uint32_t p = 0; p < 8; ++p) {
    if (p != 3) {
      EXPECT_FALSE(sys.processor_dead(p));
    }
  }
}

TEST(FaultTolerantRuntime, SurvivesCrashPlusLoss) {
  // The acceptance scenario: lossy links and a mid-run crash on a
  // 400-step run must terminate (ctest TIMEOUT guards the deadlock
  // case) with an exactly-closing ledger.
  ThreadedConfig cfg = faulty_cfg(0.15);
  cfg.faults.default_link.duplicate = 0.05;
  cfg.faults.kill(2, 150);
  cfg.faults.journal_interval = 20;
  ThreadedSystem sys(8, cfg);
  sys.run(make_trace(8, 400, 8));
  expect_conserved(sys);
  EXPECT_EQ(sys.stats().ranks_dead, 1u);
}

TEST(FaultTolerantRuntime, EarlyCrashLeavesSurvivorsBalancing) {
  // Kill a processor at step 0: survivors must blacklist it from every
  // partner draw and still run transactions among themselves.
  ThreadedConfig cfg = faulty_cfg(0.0);
  cfg.faults.kill(1, 0);
  ThreadedSystem sys(4, cfg);
  sys.run(make_trace(4, 300, 9));
  expect_conserved(sys);
  EXPECT_TRUE(sys.processor_dead(1));
  EXPECT_EQ(sys.final_loads()[1], 0);  // died before any journal commit
  EXPECT_GT(sys.stats().balance_ops, 0u);
}

TEST(FaultTolerantRuntime, MultipleCrashesTerminate) {
  ThreadedConfig cfg = faulty_cfg(0.10);
  cfg.faults.kill(1, 100).kill(5, 250);
  cfg.faults.journal_interval = 10;
  ThreadedSystem sys(8, cfg);
  sys.run(make_trace(8, 400, 10));
  expect_conserved(sys);
  EXPECT_EQ(sys.stats().ranks_dead, 2u);
}

TEST(FaultTolerantRuntime, RegistryReceivesFaultCounters) {
  obs::MetricsRegistry registry;
  ThreadedConfig cfg = faulty_cfg(0.20);
  cfg.faults.kill(3, 150);
  ThreadedSystem sys(8, cfg);
  sys.attach_metrics(&registry);
  sys.run(make_trace(8, 300, 11));
  const ThreadedStats& stats = sys.stats();
  EXPECT_EQ(registry.counter("threaded.fault.timeouts").value(),
            stats.timeouts);
  EXPECT_EQ(registry.counter("threaded.fault.rollbacks").value(),
            stats.rollbacks);
  EXPECT_EQ(registry.counter("threaded.fault.lost_packets").value(),
            stats.lost_packets);
  EXPECT_EQ(registry.counter("threaded.fault.ranks_dead").value(),
            stats.ranks_dead);
}

TEST(FaultTolerantRuntime, RejectsInvalidCrashRanks) {
  ThreadedConfig cfg;
  cfg.faults.kill(9, 10);  // only 4 processors
  EXPECT_THROW(ThreadedSystem(4, cfg), contract_error);
}

TEST(FaultTolerantRuntime, RunIsRepeatableAfterFaults) {
  // The same system object must be reusable: dead flags, journal and
  // counters re-arm per run, and no message of one run (a late Accept,
  // a rollback Assign) reaches the next run's fresh endpoints.
  ThreadedConfig cfg = faulty_cfg(0.10);
  cfg.faults.default_link.duplicate = 0.10;
  cfg.faults.default_link.delay = 0.10;
  cfg.faults.kill(2, 100);
  ThreadedSystem sys(6, cfg);
  const Trace trace = make_trace(6, 200, 12);
  for (int run = 0; run < 10; ++run) {
    SCOPED_TRACE(testing::Message() << "run " << run);
    sys.run(trace);
    expect_conserved(sys);
    EXPECT_TRUE(sys.processor_dead(2));
    EXPECT_EQ(sys.stats().ranks_dead, 1u);
  }
}

}  // namespace
}  // namespace dlb
