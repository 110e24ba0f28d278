// Serving workload: the bounded Zipf sampler against its analytic pmf,
// determinism of the compiled schedule, and the scenario structure
// (diurnal envelope, flash crowds, engine compatibility).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/system.hpp"
#include "support/rng.hpp"
#include "workload/schedule.hpp"
#include "workload/serving.hpp"
#include "workload/trace.hpp"

namespace dlb {
namespace {

// ---- ZipfSampler ------------------------------------------------------

TEST(ZipfSampler, PmfIsNormalizedAndMonotone) {
  for (double alpha : {0.8, 1.0, 1.4}) {
    ZipfSampler z(500, alpha);
    double total = 0.0;
    for (std::uint64_t k = 1; k <= z.n(); ++k) {
      const double p = z.pmf(k);
      EXPECT_GT(p, 0.0);
      if (k > 1) {
        EXPECT_LT(p, z.pmf(k - 1));
      }
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << "alpha=" << alpha;
  }
}

TEST(ZipfSampler, SamplesStayInRange) {
  ZipfSampler z(100, 1.1);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t k = z.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, 100u);
  }
}

// Empirical rank frequencies converge to the analytic pmf — the
// statistical correctness of rejection inversion.  With 200k draws the
// standard error of a head rank's frequency is ~sqrt(p/200k) < 0.0011,
// so a 4-sigma band stays well under the 0.005 absolute tolerance.
TEST(ZipfSampler, FrequencyMatchesAnalyticPmf) {
  for (double alpha : {0.8, 1.1, 1.4}) {
    ZipfSampler z(1000, alpha);
    Rng rng(20260809);
    const int draws = 200000;
    std::map<std::uint64_t, int> freq;
    for (int i = 0; i < draws; ++i) ++freq[z.sample(rng)];
    // Head ranks individually...
    for (std::uint64_t k = 1; k <= 10; ++k) {
      const double observed =
          static_cast<double>(freq[k]) / static_cast<double>(draws);
      EXPECT_NEAR(observed, z.pmf(k), 0.005)
          << "alpha=" << alpha << " rank=" << k;
    }
    // ...and the tail in aggregate (ranks > 100).
    double tail_expected = 0.0;
    for (std::uint64_t k = 101; k <= z.n(); ++k) tail_expected += z.pmf(k);
    int tail_observed = 0;
    for (const auto& [k, c] : freq)
      if (k > 100) tail_observed += c;
    EXPECT_NEAR(static_cast<double>(tail_observed) / draws, tail_expected,
                0.01)
        << "alpha=" << alpha;
  }
}

TEST(ZipfSampler, DeterministicGivenSeed) {
  ZipfSampler z(1u << 20, 1.1);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(z.sample(a), z.sample(b));
}

// A multi-million-rank universe must sample without any O(n) setup —
// this is the property that makes ServingParams::sessions = 2e6 viable.
TEST(ZipfSampler, HugeUniverseSamplesCheaply) {
  ZipfSampler z(2'000'000, 1.1);
  Rng rng(3);
  std::uint64_t max_seen = 0;
  for (int i = 0; i < 20000; ++i) max_seen = std::max(max_seen, z.sample(rng));
  EXPECT_LE(max_seen, 2'000'000u);
  EXPECT_GT(max_seen, 1000u);  // the tail is actually reachable
}

// ---- ServingWorkload --------------------------------------------------

ServingParams small_params() {
  ServingParams p;
  p.sessions = 50000;
  return p;
}

TEST(ServingWorkload, BuildIsDeterministic) {
  const auto p = small_params();
  const Workload a = ServingWorkload::build(16, 200, p, 99);
  const Workload b = ServingWorkload::build(16, 200, p, 99);
  ASSERT_EQ(a.processors(), b.processors());
  for (std::uint32_t i = 0; i < a.processors(); ++i) {
    const auto& pa = a.phases_of(i);
    const auto& pb = b.phases_of(i);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t j = 0; j < pa.size(); ++j) {
      EXPECT_EQ(pa[j].start, pb[j].start);
      EXPECT_EQ(pa[j].end, pb[j].end);
      EXPECT_DOUBLE_EQ(pa[j].generate_prob, pb[j].generate_prob);
      EXPECT_DOUBLE_EQ(pa[j].consume_prob, pb[j].consume_prob);
    }
  }
}

TEST(ServingWorkload, PhasesCoverHorizonWithValidProbabilities) {
  const auto p = small_params();
  const std::uint32_t horizon = 230;  // not a multiple of segment_steps
  const Workload wl = ServingWorkload::build(8, horizon, p, 5);
  EXPECT_EQ(wl.horizon(), horizon);
  for (std::uint32_t i = 0; i < 8; ++i) {
    const auto& phases = wl.phases_of(i);
    ASSERT_FALSE(phases.empty());
    std::uint32_t expected_start = 0;
    for (const Phase& ph : phases) {
      EXPECT_EQ(ph.start, expected_start);  // contiguous segments
      EXPECT_GE(ph.generate_prob, 0.0);
      EXPECT_LE(ph.generate_prob, 1.0);
      EXPECT_DOUBLE_EQ(ph.consume_prob, p.service_prob);
      expected_start = ph.end + 1;
    }
    EXPECT_EQ(phases.back().end, horizon - 1);
  }
}

TEST(ServingWorkload, ArrivalMixIsSkewedAndNormalized) {
  const auto p = small_params();
  const std::vector<double> mix =
      ServingWorkload::arrival_mix(32, p, 77, 200000);
  ASSERT_EQ(mix.size(), 32u);
  double total = 0.0;
  for (double m : mix) total += m;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Zipf(1.1) over 50k sessions hashed onto 32 processors: the processor
  // holding rank 1 alone carries >> 1/n of the traffic.
  const double hottest = *std::max_element(mix.begin(), mix.end());
  EXPECT_GT(hottest, 2.0 / 32.0);
}

TEST(ServingWorkload, SessionProcessorIsStableAndInRange) {
  for (std::uint64_t session : {1ull, 2ull, 999ull, 49999ull}) {
    const std::uint32_t p = ServingWorkload::session_processor(session, 16, 9);
    EXPECT_LT(p, 16u);
    EXPECT_EQ(p, ServingWorkload::session_processor(session, 16, 9));
  }
  // The hash actually spreads sessions (not constant).
  std::vector<int> hits(16, 0);
  for (std::uint64_t s = 1; s <= 1600; ++s)
    ++hits[ServingWorkload::session_processor(s, 16, 9)];
  for (int h : hits) EXPECT_GT(h, 0);
}

TEST(ServingWorkload, FlashCrowdRaisesRatesInsideItsWindow) {
  ServingParams p = small_params();
  p.flash_crowds = 1;
  p.flash_boost = 6.0;
  p.flash_width = 0.25;  // 4 of 16 processors
  p.diurnal_depth = 0.0;  // isolate the flash effect
  const std::uint32_t horizon = 400;
  const Workload with = ServingWorkload::build(16, horizon, p, 123);
  ServingParams quiet = p;
  quiet.flash_crowds = 0;
  const Workload without = ServingWorkload::build(16, horizon, quiet, 123);
  // Same seed, same Zipf segment rates: the only differences are inside
  // the flash window, and they only ever *raise* generate_prob.
  int raised = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    for (std::uint32_t t = 0; t < horizon; t += 10) {
      const double gw = with.generate_prob(i, t);
      const double go = without.generate_prob(i, t);
      EXPECT_GE(gw, go - 1e-12);
      if (gw > go + 1e-12) ++raised;
    }
  }
  EXPECT_GT(raised, 0);
}

TEST(ServingWorkload, DiurnalEnvelopeModulatesRates) {
  ServingParams p = small_params();
  p.flash_crowds = 0;
  p.diurnal_depth = 0.35;
  p.diurnal_period = 200;
  const Workload wave = ServingWorkload::build(8, 400, p, 55);
  ServingParams flat = p;
  flat.diurnal_depth = 0.0;
  const Workload base = ServingWorkload::build(8, 400, flat, 55);
  // Some segment must sit above the flat rate (peak) and some below
  // (trough) for at least one processor.
  bool above = false;
  bool below = false;
  for (std::uint32_t i = 0; i < 8; ++i) {
    for (std::uint32_t t = 0; t < 400; t += 25) {
      const double gw = wave.generate_prob(i, t);
      const double gb = base.generate_prob(i, t);
      if (gw > gb + 1e-12) above = true;
      if (gw < gb - 1e-12) below = true;
    }
  }
  EXPECT_TRUE(above);
  EXPECT_TRUE(below);
}

// The compiled schedule drives the real engines: serial batched run and
// trace replay both conserve load and terminate.
TEST(ServingWorkload, EnginesDriveTheCompiledSchedule) {
  const auto p = small_params();
  const Workload wl = ServingWorkload::build(16, 150, p, 2026);
  const ActiveSchedule schedule(wl);
  EXPECT_EQ(schedule.horizon(), wl.horizon());

  BalancerConfig cfg;
  System sys(16, cfg, 31);
  sys.run(wl);
  std::int64_t total = 0;
  for (const std::int64_t l : sys.loads()) {
    EXPECT_GE(l, 0);
    total += l;
  }
  EXPECT_GE(total, 0);

  Rng rng(17);
  const Trace trace = Trace::record(wl, rng);
  EXPECT_GT(trace.total_generations(), 0u);
  EXPECT_GT(trace.total_consume_attempts(), 0u);
}

}  // namespace
}  // namespace dlb
