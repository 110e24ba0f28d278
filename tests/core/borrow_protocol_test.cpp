// Targeted tests of the §4 borrow protocol paths.  Small networks with a
// huge trigger factor keep balancing under test control; assertions are
// on protocol events and ledger invariants rather than on exact random
// outcomes.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "obs/metrics.hpp"

namespace dlb {
namespace {

BalancerConfig cfg(std::uint32_t cap, double f = 100.0,
                   std::uint32_t delta = 1) {
  BalancerConfig c;
  c.f = f;
  c.delta = delta;
  c.borrow_cap = cap;
  return c;
}

// Puts packets of processor 0's class onto every processor.
void spread_class0(System& sys, int packets) {
  for (int i = 0; i < packets; ++i) sys.generate(0);
  sys.force_balance(0);
}

TEST(BorrowProtocol, LocalBorrowEmitsEventAndCreatesMarker) {
  System sys(2, cfg(4), 1);
  obs::MetricsRegistry reg;
  sys.attach_metrics(&reg);

  spread_class0(sys, 8);  // both processors now hold class-0 packets
  ASSERT_GT(sys.processor(1).ledger.d(0), 0);
  ASSERT_EQ(sys.processor(1).ledger.d(1), 0);

  // Processor 1 consumes: no self-generated packets -> must borrow.
  ASSERT_TRUE(sys.consume(1));
  EXPECT_EQ(sys.processor(1).ledger.b(0), 1);
  EXPECT_EQ(sys.processor(1).ledger.borrowed_total(), 1);
  EXPECT_EQ(reg.counter("system.borrow.total").value(), 1u);
  sys.check_invariants();
}

TEST(BorrowProtocol, GenerationRepaysOutstandingDebt) {
  System sys(2, cfg(4), 2);
  spread_class0(sys, 8);
  ASSERT_TRUE(sys.consume(1));
  ASSERT_EQ(sys.processor(1).ledger.borrowed_total(), 1);
  const std::int64_t d0_before = sys.processor(1).ledger.d(0);

  // The appendix generate path: the new packet is booked against the
  // marker (class 0), not as a class-1 packet.
  sys.generate(1);
  EXPECT_EQ(sys.processor(1).ledger.borrowed_total(), 0);
  EXPECT_EQ(sys.processor(1).ledger.d(0), d0_before + 1);
  EXPECT_EQ(sys.processor(1).ledger.d(1), 0);
  sys.check_invariants();
}

TEST(BorrowProtocol, CapExhaustionTriggersRemoteExchange) {
  // C = 1: the second credit consumption must settle remotely first.
  System sys(2, cfg(1), 3);
  obs::MetricsRegistry reg;
  sys.attach_metrics(&reg);

  spread_class0(sys, 12);
  ASSERT_GT(sys.processor(0).ledger.d(0), 0);

  ASSERT_TRUE(sys.consume(1));  // borrow 1 (cap reached)
  ASSERT_TRUE(sys.consume(1));  // settle + borrow again
  EXPECT_GE(reg.counter("system.borrow.remote").value(), 1u);
  EXPECT_GE(reg.counter("system.borrow.decrease_sim").value(), 1u);
  EXPECT_LE(sys.processor(1).ledger.borrowed_total(), 1);
  sys.check_invariants();
}

TEST(BorrowProtocol, RemoteExchangeMigratesRealPackets) {
  System sys(2, cfg(1), 4);
  spread_class0(sys, 12);
  const std::int64_t gen_d0 = sys.processor(0).ledger.d(0);
  ASSERT_TRUE(sys.consume(1));
  ASSERT_TRUE(sys.consume(1));
  // Settlement ships real class-0 packets from their generator.
  EXPECT_LT(sys.processor(0).ledger.d(0), gen_d0);
  EXPECT_GT(sys.costs().totals().packets_moved_net, 0u);
  sys.check_invariants();
}

TEST(BorrowProtocol, EmptyGeneratorResolutionOccursUnderPressure) {
  // The [D5] path (settlement against a generator that holds none of its
  // own packets) cannot be pinned down deterministically — generation
  // repays debts and draining triggers rebalances — but it must occur
  // under sustained consumption pressure with a tight cap, and the run
  // must stay consistent when it does.
  std::uint64_t fails = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    BalancerConfig c = cfg(1, 1.1, 1);
    System sys(8, c, seed);
    obs::MetricsRegistry reg;
    sys.attach_metrics(&reg);
    const Workload wl = Workload::uniform(8, 500, 0.4, 0.7);
    sys.run(wl);
    fails += reg.counter("system.borrow.fail").value();
    sys.check_invariants();
  }
  EXPECT_GT(fails, 0u);
}

TEST(BorrowProtocol, ConsumeFailsOnlyWhenTrulyEmpty) {
  System sys(3, cfg(2, 100.0, 2), 6);
  EXPECT_FALSE(sys.consume(0));
  spread_class0(sys, 3);
  // Total 3 packets; 3 consumes from any processors must succeed, the
  // 4th must fail.
  int successes = 0;
  for (int i = 0; i < 6; ++i) {
    if (sys.consume(static_cast<std::uint32_t>(i % 3))) ++successes;
  }
  EXPECT_EQ(successes, 3);
  EXPECT_EQ(sys.total_load(), 0);
  sys.check_invariants();
}

TEST(BorrowProtocol, BorrowCapZeroForbidsCreditConsumption) {
  System sys(2, cfg(0), 7);
  spread_class0(sys, 8);
  ASSERT_GT(sys.processor(1).ledger.d(0), 0);
  ASSERT_EQ(sys.processor(1).ledger.d(1), 0);
  // Processor 1 holds only foreign packets and cannot borrow.
  EXPECT_FALSE(sys.consume(1));
  EXPECT_EQ(sys.processor(1).ledger.borrowed_total(), 0);
  sys.check_invariants();
}

TEST(BorrowProtocol, MarkersRedistributeWithinCapDuringBalance) {
  // Markers are dealt like packets during a balancing operation and the
  // per-class <= 1 marker rule survives.
  System sys(4, cfg(4, 100.0, 3), 8);
  spread_class0(sys, 16);
  // All non-generators consume on credit.
  for (std::uint32_t p = 1; p < 4; ++p) {
    if (sys.processor(p).ledger.d(0) > 0) {
      ASSERT_TRUE(sys.consume(p));
    }
  }
  sys.force_balance(0);
  for (std::uint32_t p = 0; p < 4; ++p) {
    for (std::uint32_t j = 0; j < 4; ++j)
      EXPECT_LE(sys.processor(p).ledger.b(j), 1);
  }
  sys.check_invariants();
}

TEST(BorrowProtocol, LongCreditHeavyRunStaysConsistent) {
  // Consumption-dominated workload: the protocol is exercised thousands
  // of times; invariants and the cap must hold throughout.
  BalancerConfig c = cfg(2, 1.1, 2);
  System sys(8, c, 9);
  obs::MetricsRegistry reg;
  sys.attach_metrics(&reg);
  const Workload wl = Workload::uniform(8, 600, 0.45, 0.65);
  sys.run(wl);
  EXPECT_GT(reg.counter("system.borrow.total").value(), 100u);
  sys.check_invariants();
  for (std::uint32_t p = 0; p < 8; ++p)
    EXPECT_LE(sys.processor(p).ledger.borrowed_total(), 2);
}

}  // namespace
}  // namespace dlb
