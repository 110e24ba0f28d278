#include "theory/computation_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/check.hpp"
#include "theory/variation.hpp"

namespace dlb {
namespace {

TEST(ComputationGraph, PaperFigure2Example) {
  // §5's example: candidate sequence (2, 4, 3, 3, 4, 2, 2) — a bow edge
  // (j, i) exists iff step i's candidate was last used in step j.
  const ComputationGraph graph({2, 4, 3, 3, 4, 2, 2});
  EXPECT_EQ(graph.steps(), 7u);
  EXPECT_EQ(graph.bow_source(1), 0u);  // candidate 2: fresh
  EXPECT_EQ(graph.bow_source(2), 0u);  // candidate 4: fresh
  EXPECT_EQ(graph.bow_source(3), 0u);  // candidate 3: fresh
  EXPECT_EQ(graph.bow_source(4), 3u);  // candidate 3 again, from step 3
  EXPECT_EQ(graph.bow_source(5), 2u);  // candidate 4, from step 2
  EXPECT_EQ(graph.bow_source(6), 1u);  // candidate 2, from step 1
  EXPECT_EQ(graph.bow_source(7), 6u);  // candidate 2, from step 6
}

TEST(ComputationGraph, SingleStepLoad) {
  // One step: v_1 = (f/2)·v_0 + (1/2)·v_0 = (f+1)/2.
  const ComputationGraph graph({1});
  EXPECT_DOUBLE_EQ(graph.generator_load(1.5), 1.25);
  // The candidate holds the post-balance value v_1.
  EXPECT_DOUBLE_EQ(graph.candidate_load(1, 1.5), 1.25);
  // A candidate that never participated keeps the initial load.
  EXPECT_DOUBLE_EQ(graph.candidate_load(2, 1.5), 1.0);
}

TEST(ComputationGraph, FreshCandidatesGiveClosedForm) {
  // All-distinct candidates: v_i = (f/2) v_{i-1} + 1/2 with v_0 = 1.
  const double f = 1.4;
  const ComputationGraph graph({1, 2, 3});
  double v = 1.0;
  for (int i = 0; i < 3; ++i) v = 0.5 * f * v + 0.5;
  EXPECT_DOUBLE_EQ(graph.generator_load(f), v);
}

TEST(ComputationGraph, RepeatedSingleCandidateMatchesTwoProcessorSystem) {
  // n = 2: the same candidate every step; the pair's total grows by the
  // generator's f-growth each step and is split evenly.
  const double f = 1.2;
  const ComputationGraph graph({1, 1, 1, 1});
  double v = 1.0;
  double w = 1.0;
  for (int i = 0; i < 4; ++i) {
    const double shared = 0.5 * (f * v + w);
    v = shared;
    w = shared;
  }
  EXPECT_NEAR(graph.generator_load(f), v, 1e-12);
  EXPECT_NEAR(graph.candidate_load(1, f), w, 1e-12);
}

TEST(ComputationGraph, InitialLoadScalesLinearly) {
  const ComputationGraph graph({1, 2, 1});
  EXPECT_NEAR(graph.generator_load(1.3, 10.0),
              10.0 * graph.generator_load(1.3, 1.0), 1e-12);
}

TEST(ComputationGraph, ValidatesInput) {
  EXPECT_THROW(ComputationGraph({0}), contract_error);
  const ComputationGraph graph({1, 2});
  EXPECT_THROW(graph.bow_source(0), contract_error);
  EXPECT_THROW(graph.bow_source(3), contract_error);
  EXPECT_THROW(graph.candidate_load(0, 1.1), contract_error);
}

TEST(EnumerateMoments, TwoProcessorsIsDeterministic) {
  // n = 2: only one candidate sequence exists, so VD must be 0.
  const auto m = enumerate_moments(2, 5, 1.3);
  EXPECT_EQ(m.sequences, 1u);
  EXPECT_DOUBLE_EQ(m.vd_generator, 0.0);
  EXPECT_DOUBLE_EQ(m.vd_other, 0.0);
}

TEST(EnumerateMoments, RejectsExplosiveEnumerations) {
  EXPECT_THROW(enumerate_moments(64, 30, 1.1), contract_error);
}

// The central cross-validation: full enumeration over the paper's own
// computation-graph formalism must agree EXACTLY with the O(t) moment
// recursion of theory/variation.hpp.
struct EnumCase {
  std::uint32_t n;
  std::uint32_t steps;
  double f;
};

class EnumerationVsRecursion : public ::testing::TestWithParam<EnumCase> {};

TEST_P(EnumerationVsRecursion, MomentsAgreeToMachinePrecision) {
  const auto& prm = GetParam();
  const auto enumerated = enumerate_moments(prm.n, prm.steps, prm.f);

  VariationParams vp;
  vp.n = prm.n;
  vp.delta = 1;
  vp.f = prm.f;
  VariationRecursion rec(vp);
  rec.advance(prm.steps);

  EXPECT_NEAR(rec.vd_other(), enumerated.vd_other, 1e-10)
      << "n=" << prm.n << " steps=" << prm.steps << " f=" << prm.f;
  EXPECT_NEAR(rec.vd_generator(), enumerated.vd_generator, 1e-10);
  EXPECT_NEAR(rec.ratio(),
              enumerated.mean_generator / enumerated.mean_other, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EnumerationVsRecursion,
    ::testing::Values(EnumCase{3, 6, 1.1}, EnumCase{3, 10, 1.5},
                      EnumCase{4, 6, 1.1}, EnumCase{4, 8, 1.2},
                      EnumCase{5, 6, 1.3}, EnumCase{6, 5, 1.1},
                      EnumCase{9, 4, 1.8}),
    [](const ::testing::TestParamInfo<EnumCase>& ti) {
      std::string name = "n";
      name += std::to_string(ti.param.n);
      name += "_t";
      name += std::to_string(ti.param.steps);
      name += "_f";
      name += std::to_string(static_cast<int>(ti.param.f * 10));
      return name;
    });

}  // namespace
}  // namespace dlb
