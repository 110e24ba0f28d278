#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace dlb {
namespace {

BalancerConfig cfg() {
  BalancerConfig c;
  c.f = 1.2;
  c.delta = 2;
  c.borrow_cap = 3;
  return c;
}

TEST(Checkpoint, RoundTripPreservesState) {
  System original(8, cfg(), 42);
  const Workload wl = Workload::uniform(8, 150, 0.6, 0.4);
  original.run(wl);

  std::stringstream buffer;
  save_checkpoint(original, buffer);
  System restored = load_checkpoint(buffer);

  EXPECT_EQ(restored.processors(), original.processors());
  EXPECT_EQ(restored.loads(), original.loads());
  EXPECT_EQ(restored.total_generated(), original.total_generated());
  EXPECT_EQ(restored.total_consumed(), original.total_consumed());
  EXPECT_EQ(restored.balance_operations(), original.balance_operations());
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(restored.processor(p).ledger.dense_d(),
              original.processor(p).ledger.dense_d());
    EXPECT_EQ(restored.processor(p).ledger.dense_b(),
              original.processor(p).ledger.dense_b());
    EXPECT_EQ(restored.processor(p).l_old, original.processor(p).l_old);
    EXPECT_EQ(restored.processor(p).local_time,
              original.processor(p).local_time);
  }
  EXPECT_EQ(restored.costs().totals().packets_moved,
            original.costs().totals().packets_moved);
}

TEST(Checkpoint, RestoredRunContinuesBitIdentically) {
  // Uninterrupted: 300 steps.  Interrupted: 150 steps, checkpoint,
  // restore, 150 more steps on the same demand.  Results must match
  // exactly.
  const Workload wl = Workload::uniform(8, 300, 0.6, 0.4);
  Rng trace_rng(9);
  const Trace trace = Trace::record(wl, trace_rng);

  System uninterrupted(8, cfg(), 7);
  uninterrupted.run(trace);

  System first_half(8, cfg(), 7);
  std::vector<WorkEvent> events(8);
  for (std::uint32_t t = 0; t < 150; ++t) {
    for (std::uint32_t p = 0; p < 8; ++p) events[p] = trace.at(p, t);
    first_half.step(t, events);
  }
  std::stringstream buffer;
  save_checkpoint(first_half, buffer);
  System second_half = load_checkpoint(buffer);
  for (std::uint32_t t = 150; t < 300; ++t) {
    for (std::uint32_t p = 0; p < 8; ++p) events[p] = trace.at(p, t);
    second_half.step(t, events);
  }

  EXPECT_EQ(second_half.loads(), uninterrupted.loads());
  EXPECT_EQ(second_half.balance_operations(),
            uninterrupted.balance_operations());
  EXPECT_EQ(second_half.total_generated(),
            uninterrupted.total_generated());
  for (std::uint32_t p = 0; p < 8; ++p) {
    EXPECT_EQ(second_half.processor(p).ledger.dense_d(),
              uninterrupted.processor(p).ledger.dense_d());
  }
}

TEST(Checkpoint, PreservesNeighborhoodRestriction) {
  const auto ring = Topology::ring(8);
  System original(8, cfg(), 5, &ring);
  original.restrict_partners_to_neighborhood(2);
  original.run(Workload::one_producer(8, 100));

  std::stringstream buffer;
  save_checkpoint(original, buffer);
  System restored = load_checkpoint(buffer, &ring);
  EXPECT_EQ(restored.partner_radius(), original.partner_radius());
  EXPECT_EQ(restored.loads(), original.loads());
}

TEST(Checkpoint, NeighborhoodCheckpointWithoutTopologyThrows) {
  const auto ring = Topology::ring(8);
  System original(8, cfg(), 5, &ring);
  original.restrict_partners_to_neighborhood(1);
  std::stringstream buffer;
  save_checkpoint(original, buffer);
  EXPECT_THROW(load_checkpoint(buffer), contract_error);
}

TEST(Checkpoint, SavesSparseVersion2) {
  System original(8, cfg(), 42);
  original.run(Workload::uniform(8, 60, 0.6, 0.4));
  std::stringstream buffer;
  save_checkpoint(original, buffer);
  std::string magic;
  int version = 0;
  buffer >> magic >> version;
  EXPECT_EQ(magic, "dlb-checkpoint");
  EXPECT_EQ(version, 2);
  // The sparse body must round-trip (also covered by the tests above,
  // which go through the same save/load pair).
  buffer.seekg(0);
  System restored = load_checkpoint(buffer);
  EXPECT_EQ(restored.loads(), original.loads());
}

TEST(Checkpoint, ReadsDenseVersion1) {
  // A version-1 checkpoint (dense 2n-cell ledger rows) must restore into
  // the sparse storage: processor 0 holds 3 packets of class 0 plus a
  // class-1 marker, processor 1 holds 1 packet of class 1.
  std::ostringstream os;
  os << "dlb-checkpoint 1\n";
  os << "2 1 4 0\n";
  os.precision(17);
  os << std::hexfloat << 1.5 << std::defaultfloat << '\n';
  const auto rng_state = Rng(7).state();
  os << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2] << ' '
     << rng_state[3] << '\n';
  os << "5 1 0\n";       // generated consumed balance_ops (loads sum = 4)
  os << "0 0 0 0 0 0\n"; // cost totals
  os << "-1\n";          // no partner radius
  os << "3 0\n" << "3 0\n" << "0 1\n";  // proc 0: l_old/local_time, d, b
  os << "1 0\n" << "0 1\n" << "0 0\n";  // proc 1
  std::istringstream is(os.str());
  System restored = load_checkpoint(is);
  EXPECT_EQ(restored.processors(), 2u);
  EXPECT_EQ(restored.processor(0).ledger.d(0), 3);
  EXPECT_EQ(restored.processor(0).ledger.b(1), 1);
  EXPECT_EQ(restored.processor(1).ledger.d(1), 1);
  const auto active0 = restored.processor(0).ledger.active_classes();
  const auto active1 = restored.processor(1).ledger.active_classes();
  EXPECT_EQ(std::vector<std::uint32_t>(active0.begin(), active0.end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(std::vector<std::uint32_t>(active1.begin(), active1.end()),
            (std::vector<std::uint32_t>{1}));
}

// A version-2 checkpoint of four processors (delta 1, C = 2, nothing
// generated or consumed) whose processor 0 has the ledger line `ledger0`
// (entry count, then class d b triples); the others are empty.
std::string v2_checkpoint(const std::string& ledger0) {
  std::ostringstream os;
  os << "dlb-checkpoint 2\n";
  os << "4 1 2 0\n";
  os.precision(17);
  os << std::hexfloat << 1.5 << std::defaultfloat << '\n';
  const auto rng_state = Rng(7).state();
  os << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2] << ' '
     << rng_state[3] << '\n';
  os << "0 0 0\n";        // generated consumed balance_ops
  os << "0 0 0 0 0 0\n";  // cost totals
  os << "-1\n";           // no partner radius
  os << "0 0 " << ledger0 << '\n';
  for (int p = 1; p < 4; ++p) os << "0 0 0\n\n";
  return os.str();
}

System load_text(const std::string& text) {
  std::istringstream is(text);
  return load_checkpoint(is);
}

TEST(Checkpoint, RejectsGarbage) {
  std::stringstream not_a_checkpoint("hello world");
  EXPECT_THROW(load_checkpoint(not_a_checkpoint), contract_error);
  std::stringstream wrong_version("dlb-checkpoint 999\n");
  EXPECT_THROW(load_checkpoint(wrong_version), contract_error);
  std::stringstream truncated("dlb-checkpoint 1\n4 2 3 0\n");
  EXPECT_THROW(load_checkpoint(truncated), contract_error);
  // Ledger lines at the trust boundary.  The control holds C markers and
  // no real load, so it restores; each bad line keeps the real load at 0
  // and breaks exactly one rule.
  const System control = load_text(v2_checkpoint("2\n1 0 1 3 0 1"));
  EXPECT_EQ(control.processor(0).ledger.borrowed_total(), 2);
  EXPECT_THROW(load_text(v2_checkpoint("2\n3 0 1 1 0 1")),
               contract_error);  // descending classes
  EXPECT_THROW(load_text(v2_checkpoint("1\n4 0 1")),
               contract_error);  // class >= n
  EXPECT_THROW(load_text(v2_checkpoint("2\n1 -1 0 2 1 0")),
               contract_error);  // negative d
  EXPECT_THROW(load_text(v2_checkpoint("1\n1 0 2")),
               contract_error);  // b = 2
  EXPECT_THROW(load_text(v2_checkpoint("3\n0 0 1 1 0 1 3 0 1")),
               contract_error);  // more markers than C
}

// Restore rebuilds each ledger in one pass, which must leave the owner's
// slot right whether the owner's class is in the saved line or not; the
// owner's class then takes the one-load path of later events.
TEST(Checkpoint, RestoresTheOwnerSlotWithOrWithoutItsClass) {
  // Processor 0 holds a marker of its own class, and one of class 2.
  System present = load_text(v2_checkpoint("2\n0 0 1 2 0 1"));
  const Ledger& mine = present.processor(0).ledger;
  EXPECT_EQ(mine.b(0), 1);
  EXPECT_EQ(mine.d(0), 0);
  EXPECT_EQ(mine.b(2), 1);
  // Only a marker of class 2: the owner's class reads zero.
  System absent = load_text(v2_checkpoint("1\n2 0 1"));
  const Ledger& other = absent.processor(0).ledger;
  EXPECT_EQ(other.d(0), 0);
  EXPECT_EQ(other.b(0), 0);
  EXPECT_EQ(other.b(2), 1);
  // Later events go through the owner's slot (check_invariants verifies
  // it on every ledger): generates repay markers or add own packets, and
  // the triggers they fire deal them out.
  for (System* sys : {&present, &absent}) {
    for (int i = 0; i < 3; ++i) sys->generate(0);
    sys->check_invariants();
    EXPECT_EQ(sys->total_load(), 3);
  }
}

TEST(Checkpoint, ExactDoubleRoundTrip) {
  // f is written in hexfloat: an "ugly" value must survive exactly.
  BalancerConfig c;
  c.f = 1.0 + 1.0 / 3.0;
  c.delta = 1;
  System original(4, c, 3);
  original.generate(0);
  std::stringstream buffer;
  save_checkpoint(original, buffer);
  System restored = load_checkpoint(buffer);
  EXPECT_EQ(restored.config().f, c.f);
}

}  // namespace
}  // namespace dlb
