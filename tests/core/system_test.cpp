#include "core/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "support/check.hpp"

namespace dlb {
namespace {

BalancerConfig cfg(double f = 1.1, std::uint32_t delta = 1,
                   std::uint32_t cap = 4) {
  BalancerConfig c;
  c.f = f;
  c.delta = delta;
  c.borrow_cap = cap;
  return c;
}

TEST(System, StartsEmpty) {
  System sys(4, cfg(), 1);
  EXPECT_EQ(sys.total_load(), 0);
  EXPECT_EQ(sys.total_generated(), 0u);
  EXPECT_EQ(sys.balance_operations(), 0u);
  sys.check_invariants();
}

TEST(System, GenerateIncreasesLoadAndTriggersFirstBalance) {
  System sys(4, cfg(), 2);
  sys.generate(0);
  // [D1]: with l_old == 0 the first self packet crosses the trigger.
  EXPECT_GE(sys.balance_operations(), 1u);
  EXPECT_EQ(sys.total_load(), 1);
  sys.check_invariants();
}

TEST(System, ConsumeOnEmptyFails) {
  System sys(3, cfg(), 3);
  EXPECT_FALSE(sys.consume(1));
  EXPECT_EQ(sys.total_consumed(), 0u);
}

TEST(System, GenerateConsumeRoundTrip) {
  System sys(2, cfg(), 4);
  sys.generate(0);
  EXPECT_TRUE(sys.consume(0) || sys.consume(1));
  EXPECT_EQ(sys.total_load(), 0);
  sys.check_invariants();
}

TEST(System, PacketConservationUnderLoad) {
  System sys(8, cfg(1.1, 2), 5);
  const Workload wl = Workload::uniform(8, 300, 0.6, 0.4);
  sys.run(wl);
  sys.check_invariants();
  EXPECT_EQ(sys.total_load(),
            static_cast<std::int64_t>(sys.total_generated()) -
                static_cast<std::int64_t>(sys.total_consumed()));
}

TEST(System, OneProducerSpreadsLoadAcrossNetwork) {
  System sys(8, cfg(1.1, 2), 6);
  const Workload wl = Workload::one_producer(8, 400);
  sys.run(wl);
  sys.check_invariants();
  EXPECT_EQ(sys.total_load(), 400);
  const auto loads = sys.loads();
  // Every processor should have received a share.
  for (std::int64_t l : loads) EXPECT_GT(l, 0);
  // And no processor should dominate: max within a small factor of avg.
  const std::int64_t maxl = *std::max_element(loads.begin(), loads.end());
  EXPECT_LT(static_cast<double>(maxl), 3.0 * 400.0 / 8.0);
}

TEST(System, BalanceEqualizesParticipants) {
  System sys(2, cfg(10.0, 1), 7);  // huge f: no automatic triggers
  for (int i = 0; i < 10; ++i) sys.generate(0);
  // f = 10 with l_old updated after the first packet: the first packet
  // triggers (l_old 0); afterwards growth to 10x is needed, so loads can
  // skew. Force one explicit balance and verify +/-1.
  sys.force_balance(0);
  const auto loads = sys.loads();
  EXPECT_LE(std::abs(loads[0] - loads[1]), 1);
  sys.check_invariants();
}

// Partners are drawn at random, so a deal often takes in ledgers that
// never held an entry; they read the shared sentinel and the in-place
// merge walks them as empty rows.
TEST(System, DealsTakeInEmptyLedgers) {
  System sys(4, cfg(10.0, 3), 23);  // delta 3: every processor takes part
  sys.force_balance(2);  // four empty ledgers: an empty union
  EXPECT_EQ(sys.balance_operations(), 1u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(sys.processor(p).ledger.records().empty());
    EXPECT_EQ(sys.processor(p).ledger.memory_bytes(), 0u);
  }
  sys.check_invariants();
  // The first packet fires processor 0's trigger: it is dealt between
  // its holder and three empty ledgers, and lands on exactly one.
  sys.generate(0);
  EXPECT_EQ(sys.balance_operations(), 2u);
  int holders = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    holders += sys.load(p) == 1 ? 1 : 0;
    EXPECT_EQ(sys.processor(p).ledger.d(0), sys.load(p));
  }
  EXPECT_EQ(holders, 1);
  sys.check_invariants();
}

// A deal grows a participant's records only when its dealt row holds an
// entry: the first packet's three empty partners still own no memory.
TEST(System, EmptyDealRowsAllocateNothing) {
  System sys(4, cfg(10.0, 3), 23);  // delta 3: every processor takes part
  sys.generate(0);
  ASSERT_EQ(sys.balance_operations(), 1u);
  int empty = 0;
  for (std::uint32_t p = 0; p < 4; ++p) {
    if (sys.load(p) != 0) {
      EXPECT_GT(sys.processor(p).ledger.memory_bytes(), 0u);
      continue;
    }
    ++empty;
    EXPECT_TRUE(sys.processor(p).ledger.records().empty());
    EXPECT_EQ(sys.processor(p).ledger.memory_bytes(), 0u);
  }
  EXPECT_EQ(empty, 3);
  sys.check_invariants();
}

TEST(System, LedgerRowTotalsMatchLoads) {
  System sys(6, cfg(1.2, 2), 8);
  const Workload wl = Workload::uniform(6, 200, 0.5, 0.3);
  sys.run(wl);
  for (std::uint32_t p = 0; p < 6; ++p) {
    std::int64_t row = 0;
    for (std::uint32_t j = 0; j < 6; ++j)
      row += sys.processor(p).ledger.d(j);
    EXPECT_EQ(row, sys.load(p));
  }
}

TEST(System, BorrowCapIsRespected) {
  System sys(6, cfg(1.1, 1, 2), 9);
  const Workload wl = Workload::uniform(6, 400, 0.4, 0.6);
  sys.run(wl);  // consumption-heavy: exercises the borrow protocol
  for (std::uint32_t p = 0; p < 6; ++p) {
    EXPECT_LE(sys.processor(p).ledger.borrowed_total(), 2);
    for (std::uint32_t j = 0; j < 6; ++j)
      EXPECT_LE(sys.processor(p).ledger.b(j), 1);
  }
  sys.check_invariants();
}

TEST(System, BorrowCapZeroDisablesBorrowing) {
  System sys(4, cfg(1.1, 1, 0), 10);
  const Workload wl = Workload::uniform(4, 200, 0.4, 0.6);
  sys.run(wl);
  for (std::uint32_t p = 0; p < 4; ++p)
    EXPECT_EQ(sys.processor(p).ledger.borrowed_total(), 0);
  sys.check_invariants();
}

TEST(System, DeterministicForEqualSeeds) {
  const Workload wl = Workload::uniform(8, 150, 0.6, 0.4);
  System a(8, cfg(1.1, 2), 77);
  System b(8, cfg(1.1, 2), 77);
  a.run(wl);
  b.run(wl);
  EXPECT_EQ(a.loads(), b.loads());
  EXPECT_EQ(a.balance_operations(), b.balance_operations());
  EXPECT_EQ(a.total_generated(), b.total_generated());
}

TEST(System, TraceReplayMatchesLiveRunDemand) {
  const Workload wl = Workload::uniform(4, 100, 0.5, 0.5);
  Rng trace_rng(55);
  const Trace trace = Trace::record(wl, trace_rng);
  System sys(4, cfg(), 11);
  sys.run(trace);
  sys.check_invariants();
  // Each generation in the trace became a packet; consumption attempts
  // are bounded by the trace.
  EXPECT_EQ(sys.total_generated(), trace.total_generations());
  EXPECT_LE(sys.total_consumed(), trace.total_consume_attempts());
}

TEST(System, LocalTimeTicksForAllParticipants) {
  System sys(4, cfg(10.0, 3), 12);
  sys.generate(0);        // first packet triggers one balance (l_old was 0)
  sys.force_balance(0);   // plus one forced: all 4 procs participate twice
  for (std::uint32_t p = 0; p < 4; ++p)
    EXPECT_EQ(sys.processor(p).local_time, 2u);
}

TEST(System, ShrinkTriggerFiresOnConsumption) {
  System sys(4, cfg(1.5, 1), 13);
  const Workload grow = Workload::one_producer(4, 100);
  sys.run(grow);
  const std::uint64_t ops_after_growth = sys.balance_operations();
  // Now consume processor 0's own packets; its d[0] shrink by factor f
  // must eventually fire the shrink trigger.
  for (int i = 0; i < 30; ++i) sys.consume(0);
  EXPECT_GT(sys.balance_operations(), ops_after_growth);
  sys.check_invariants();
}

TEST(System, TopologySizeMismatchThrows) {
  const auto topo = Topology::ring(8);
  EXPECT_THROW(System(4, cfg(), 1, &topo), contract_error);
}

TEST(System, NeighborhoodRestrictionNeedsTopology) {
  System sys(4, cfg(), 14);
  EXPECT_THROW(sys.restrict_partners_to_neighborhood(1), contract_error);
}

TEST(System, NeighborhoodPartnersComeFromBall) {
  const auto ring = Topology::ring(16);
  System sys(16, cfg(1.1, 2), 15, &ring);
  sys.restrict_partners_to_neighborhood(1);
  const Workload wl = Workload::one_producer(16, 200);
  sys.run(wl);
  sys.check_invariants();
  // With radius-1 partners on a ring, load spreads but distant nodes get
  // less than near ones early: at least the immediate neighbors of 0
  // must hold load.
  EXPECT_GT(sys.load(1) + sys.load(15), 0);
}

TEST(System, HopCostsAccountedOnTopology) {
  const auto ring = Topology::ring(8);
  System sys(8, cfg(1.1, 2), 16, &ring);
  const Workload wl = Workload::one_producer(8, 200);
  sys.run(wl);
  const CostTotals& totals = sys.costs().totals();
  EXPECT_GT(totals.balance_ops, 0u);
  EXPECT_GT(totals.packets_moved, 0u);
  // On a ring with global random partners, average hop distance > 1.
  EXPECT_GT(totals.packet_hops, totals.packets_moved);
}

TEST(System, NetFlowNeverExceedsGrossTraffic) {
  System sys(8, cfg(1.1, 2), 21);
  const Workload wl = Workload::uniform(8, 300, 0.6, 0.4);
  sys.run(wl);
  const CostTotals& totals = sys.costs().totals();
  EXPECT_GT(totals.packets_moved, 0u);
  EXPECT_LE(totals.packets_moved_net, totals.packets_moved);
}

TEST(System, AnalysisModeStillConservesAndBalances) {
  BalancerConfig c = cfg(1.1, 2);
  c.analysis_mode = true;
  System sys(8, c, 17);
  const Workload wl = Workload::uniform(8, 300, 0.6, 0.3);
  sys.run(wl);
  sys.check_invariants();
  EXPECT_EQ(sys.total_load(),
            static_cast<std::int64_t>(sys.total_generated()) -
                static_cast<std::int64_t>(sys.total_consumed()));
}

TEST(System, StepValidatesEventVectorSize) {
  System sys(3, cfg(), 18);
  std::vector<WorkEvent> wrong(2);
  EXPECT_THROW(sys.step(0, wrong), contract_error);
}

TEST(System, ForceBalanceOutOfRangeThrows) {
  System sys(3, cfg(), 19);
  EXPECT_THROW(sys.force_balance(3), contract_error);
  EXPECT_THROW(sys.generate(5), contract_error);
  EXPECT_THROW(sys.consume(7), contract_error);
  EXPECT_THROW(sys.load(9), contract_error);
}

}  // namespace
}  // namespace dlb
