#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include "flat_workload.hpp"
#include "support/check.hpp"

namespace dlb {
namespace {

TEST(Workload, OneProducerShape) {
  const auto wl = Workload::one_producer(8, 100);
  EXPECT_EQ(wl.processors(), 8u);
  EXPECT_EQ(wl.horizon(), 100u);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 99), 1.0);
  EXPECT_DOUBLE_EQ(wl.consume_prob(0, 50), 0.0);
  for (std::uint32_t p = 1; p < 8; ++p) {
    EXPECT_DOUBLE_EQ(wl.generate_prob(p, 10), 0.0);
    EXPECT_DOUBLE_EQ(wl.consume_prob(p, 10), 0.0);
  }
}

TEST(Workload, UniformProbabilities) {
  const auto wl = Workload::uniform(4, 50, 0.6, 0.4);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(wl.generate_prob(p, 25), 0.6);
    EXPECT_DOUBLE_EQ(wl.consume_prob(p, 25), 0.4);
  }
}

TEST(Workload, SampleMatchesProbabilities) {
  const auto wl = Workload::uniform(2, 10, 0.7, 0.2);
  Rng rng(5);
  int gens = 0;
  int cons = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const WorkEvent ev = wl.sample(0, 5, rng);
    gens += ev.generate;
    cons += ev.consume;
  }
  EXPECT_NEAR(gens / double(kTrials), 0.7, 0.02);
  EXPECT_NEAR(cons / double(kTrials), 0.2, 0.02);
}

TEST(Workload, OutsidePhaseIsIdle) {
  const Workload wl = flat_workload(1, 100, {{Phase{10, 20, 0.5, 0.5}}});
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 10), 0.5);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 20), 0.5);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 21), 0.0);
  Rng rng(1);
  const WorkEvent ev = wl.sample(0, 99, rng);
  EXPECT_FALSE(ev.generate);
  EXPECT_FALSE(ev.consume);
}

TEST(Workload, PhaseLookupSupportsRandomAccess) {
  const Workload wl = flat_workload(
      1, 30,
      {{Phase{0, 9, 0.1, 0.0}, Phase{10, 19, 0.2, 0.0},
        Phase{20, 29, 0.3, 0.0}}});
  // Forward then backward: the cursor memo must not break correctness.
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 25), 0.3);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 5), 0.1);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 15), 0.2);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 0), 0.1);
}

TEST(Workload, PaperBenchmarkCoversHorizonWithValidPhases) {
  Rng rng(77);
  WorkloadParams params;  // paper defaults
  const auto wl = Workload::paper_benchmark(64, 500, params, rng);
  EXPECT_EQ(wl.processors(), 64u);
  for (std::uint32_t p = 0; p < 64; ++p) {
    const auto& phases = wl.phases_of(p);
    ASSERT_FALSE(phases.empty());
    EXPECT_EQ(phases.front().start, 0u);
    EXPECT_EQ(phases.back().end, 499u);
    std::uint32_t expected_start = 0;
    for (const auto& ph : phases) {
      EXPECT_EQ(ph.start, expected_start);
      EXPECT_GE(ph.generate_prob, params.g_low);
      EXPECT_LE(ph.generate_prob, params.g_high);
      EXPECT_GE(ph.consume_prob, params.c_low);
      EXPECT_LE(ph.consume_prob, params.c_high);
      const std::uint32_t len = ph.end - ph.start + 1;
      // The last phase may be clipped by the horizon.
      if (ph.end != 499u) {
        EXPECT_GE(len, params.len_low);
        EXPECT_LE(len, params.len_high);
      }
      expected_start = ph.end + 1;
    }
  }
}

TEST(Workload, PaperBenchmarkIsDeterministicInSeed) {
  WorkloadParams params;
  Rng a(3);
  Rng b(3);
  const auto wa = Workload::paper_benchmark(8, 200, params, a);
  const auto wb = Workload::paper_benchmark(8, 200, params, b);
  for (std::uint32_t p = 0; p < 8; ++p) {
    for (std::uint32_t t = 0; t < 200; t += 17) {
      EXPECT_DOUBLE_EQ(wa.generate_prob(p, t), wb.generate_prob(p, t));
      EXPECT_DOUBLE_EQ(wa.consume_prob(p, t), wb.consume_prob(p, t));
    }
  }
}

TEST(Workload, HotspotSplitsRoles) {
  const auto wl = Workload::hotspot(10, 50, 2, 0.9, 0.3);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 10), 0.9);
  EXPECT_DOUBLE_EQ(wl.generate_prob(1, 10), 0.9);
  EXPECT_DOUBLE_EQ(wl.generate_prob(2, 10), 0.0);
  EXPECT_DOUBLE_EQ(wl.consume_prob(2, 10), 0.3);
}

TEST(Workload, WaveMovesTheHotProcessor) {
  const auto wl = Workload::wave(4, 40, 10);
  EXPECT_GT(wl.generate_prob(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(wl.generate_prob(1, 5), 0.0);
  EXPECT_GT(wl.generate_prob(1, 15), 0.0);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 15), 0.0);
}

TEST(Workload, BurstyAlternates) {
  const auto wl = Workload::bursty(2, 40, 10, 0.8, 0.6);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 5), 0.8);
  EXPECT_DOUBLE_EQ(wl.consume_prob(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 15), 0.0);
  EXPECT_DOUBLE_EQ(wl.consume_prob(0, 15), 0.6);
}

TEST(Workload, FlipFlopHalvesAlternate) {
  const auto wl = Workload::flip_flop(4, 40, 10, 0.8, 0.6);
  // First epoch: first half generates, second half consumes.
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 5), 0.8);
  EXPECT_DOUBLE_EQ(wl.consume_prob(3, 5), 0.6);
  // Second epoch: roles swap.
  EXPECT_DOUBLE_EQ(wl.consume_prob(0, 15), 0.6);
  EXPECT_DOUBLE_EQ(wl.generate_prob(3, 15), 0.8);
}

TEST(Workload, InvalidPhasesRejected) {
  // start > end
  EXPECT_THROW(flat_workload(1, 100, {{Phase{10, 5, 0.5, 0.5}}}),
               contract_error);
  // overlap
  EXPECT_THROW(flat_workload(
                   1, 100, {{Phase{0, 10, 0.5, 0.5}, Phase{5, 20, 0.5, 0.5}}}),
               contract_error);
  // probability > 1
  EXPECT_THROW(flat_workload(1, 100, {{Phase{0, 10, 1.5, 0.5}}}),
               contract_error);
}

TEST(Workload, WrongPhaseListCountRejected) {
  EXPECT_THROW(flat_workload(2, 100, std::vector<std::vector<Phase>>(3)),
               contract_error);
}

TEST(Workload, MalformedOffsetsRejected) {
  const std::vector<Phase> phases = {Phase{0, 9, 0.5, 0.5},
                                     Phase{10, 19, 0.5, 0.5},
                                     Phase{0, 19, 0.5, 0.5}};
  const auto build = [&](std::vector<std::uint32_t> offsets) {
    return Workload(2, 20, phases, std::move(offsets), "bad");
  };
  EXPECT_NO_THROW(build({0, 2, 3}));
  EXPECT_THROW(build({0, 2}), contract_error);        // too short
  EXPECT_THROW(build({0, 2, 3, 3}), contract_error);  // too long
  EXPECT_THROW(build({1, 2, 3}), contract_error);     // first offset != 0
  EXPECT_THROW(build({0, 2, 1}), contract_error);     // last != phase count
  EXPECT_THROW(build({0, 2, 4}), contract_error);     // last != phase count
  // A descending pair that ends on the phase count: processor 0's run
  // overshoots the phases, processor 1's runs backwards.
  EXPECT_THROW(Workload(3, 20, phases, {0, 3, 1, 3}, "bad"), contract_error);
  EXPECT_THROW(Workload(2, 20, phases, {0, 4, 3}, "bad"), contract_error);
}

TEST(Workload, PhaseOrderIsCheckedWithinEachProcessor) {
  // Processor 1's phase starts before processor 0's ends: fine, they
  // belong to different processors.
  const Workload ok = flat_workload(
      2, 20, {{Phase{0, 9, 0.5, 0.5}, Phase{10, 19, 0.5, 0.5}},
              {Phase{0, 19, 0.5, 0.5}}});
  EXPECT_EQ(ok.total_phases(), 3u);
  // Unsorted inside processor 1's range.
  EXPECT_THROW(
      flat_workload(2, 20,
                    {{Phase{0, 19, 0.5, 0.5}},
                     {Phase{10, 19, 0.5, 0.5}, Phase{0, 9, 0.5, 0.5}}}),
      contract_error);
  // Overlapping inside processor 1's range.
  EXPECT_THROW(
      flat_workload(2, 20,
                    {{Phase{0, 19, 0.5, 0.5}},
                     {Phase{0, 10, 0.5, 0.5}, Phase{10, 19, 0.5, 0.5}}}),
      contract_error);
}

TEST(Workload, IdleProcessorYieldsAnEmptySpan) {
  const Workload wl = flat_workload(
      3, 20, {{}, {Phase{0, 9, 0.5, 0.5}, Phase{10, 19, 0.2, 0.1}}, {}});
  EXPECT_EQ(wl.total_phases(), 2u);
  EXPECT_TRUE(wl.phases_of(0).empty());
  EXPECT_TRUE(wl.phases_of(2).empty());
  ASSERT_EQ(wl.phases_of(1).size(), 2u);
  EXPECT_EQ(wl.phases_of(1)[1].start, 10u);
  EXPECT_DOUBLE_EQ(wl.generate_prob(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(wl.generate_prob(1, 15), 0.2);
  EXPECT_THROW(wl.phases_of(3), contract_error);
  // The sparse factory: only the first `active` processors hold phases.
  const Workload sparse = Workload::sparse_hotspot(1000, 50, 3, 0.7, 0.3);
  EXPECT_EQ(sparse.total_phases(), 3u);
  EXPECT_EQ(sparse.phases_of(2).size(), 1u);
  EXPECT_TRUE(sparse.phases_of(3).empty());
  EXPECT_TRUE(sparse.phases_of(999).empty());
}

}  // namespace
}  // namespace dlb
