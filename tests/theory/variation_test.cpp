#include "theory/variation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/check.hpp"
#include "theory/operators.hpp"

namespace dlb {
namespace {

VariationParams vp(std::uint32_t n, std::uint32_t delta, double f,
                   bool relaxed = false) {
  VariationParams p;
  p.n = n;
  p.delta = delta;
  p.f = f;
  p.relaxed_pairwise = relaxed;
  return p;
}

TEST(VariationRecursion, StartsAtZeroVariation) {
  VariationRecursion rec(vp(16, 1, 1.1));
  EXPECT_DOUBLE_EQ(rec.vd_other(), 0.0);
  EXPECT_DOUBLE_EQ(rec.vd_generator(), 0.0);
  EXPECT_DOUBLE_EQ(rec.ratio(), 1.0);
}

TEST(VariationRecursion, VariationGrowsThenStabilizes) {
  VariationRecursion rec(vp(16, 1, 1.1));
  rec.advance(5);
  const double early = rec.vd_other();
  EXPECT_GT(early, 0.0);
  rec.advance(145);
  const double late = rec.vd_other();
  rec.advance(150);
  const double later = rec.vd_other();
  // Figure 6: the curve converges quickly; after 150 steps the change
  // over another 150 steps is tiny.
  EXPECT_NEAR(late, later, 0.02 * late + 1e-6);
}

TEST(VariationRecursion, RatioConvergesToFixpoint) {
  // The mean-ratio embedded in the second-moment recursion must agree
  // with the §3 fixed point — a strong internal consistency check.
  for (const auto& p : {vp(16, 1, 1.1), vp(35, 4, 1.2), vp(8, 2, 1.5)}) {
    VariationRecursion rec(p);
    rec.advance(2000);
    ModelParams mp{static_cast<double>(p.n), static_cast<double>(p.delta),
                   p.f};
    EXPECT_NEAR(rec.ratio(), fixpoint(mp), 1e-6)
        << "n=" << p.n << " delta=" << p.delta << " f=" << p.f;
  }
}

TEST(VariationRecursion, HigherDeltaLowersVariation) {
  // Figure 6's main visual: delta = 4 curves sit below delta = 1.
  VariationRecursion d1(vp(20, 1, 1.2));
  VariationRecursion d2(vp(20, 2, 1.2));
  VariationRecursion d4(vp(20, 4, 1.2));
  d1.advance(150);
  d2.advance(150);
  d4.advance(150);
  EXPECT_GT(d1.vd_other(), d2.vd_other());
  EXPECT_GT(d2.vd_other(), d4.vd_other());
}

TEST(VariationRecursion, HigherFRaisesVariation) {
  VariationRecursion f11(vp(20, 1, 1.1));
  VariationRecursion f12(vp(20, 1, 1.2));
  f11.advance(150);
  f12.advance(150);
  EXPECT_LT(f11.vd_other(), f12.vd_other());
}

TEST(VariationRecursion, BoundedInNetworkSize) {
  // Figure 6: the variation density "can be bounded independent of the
  // network size": growing n does not blow the converged value up.
  double prev = 0.0;
  for (std::uint32_t n : {5u, 10u, 20u, 35u, 70u, 140u}) {
    VariationRecursion rec(vp(n, 1, 1.1));
    rec.advance(400);
    const double v = rec.vd_other();
    EXPECT_LT(v, 2.0) << "n=" << n;
    if (n >= 20) {
      // Converging in n: successive values move by little.
      EXPECT_NEAR(v, prev, 0.35);
    }
    prev = v;
  }
}

TEST(VariationRecursion, RelaxedDiffersFromExactDeltaWay) {
  VariationRecursion exact(vp(20, 4, 1.2, false));
  VariationRecursion relaxed(vp(20, 4, 1.2, true));
  exact.advance(100);
  relaxed.advance(100);
  EXPECT_NE(exact.vd_other(), relaxed.vd_other());
}

TEST(VariationRecursion, InvalidParamsThrow) {
  EXPECT_THROW(VariationRecursion(vp(1, 1, 1.1)), contract_error);
  EXPECT_THROW(VariationRecursion(vp(4, 4, 1.1)), contract_error);
  EXPECT_THROW(VariationRecursion(vp(4, 1, 0.9)), contract_error);
}

// ---- Monte-Carlo cross-validation of the exact recursion ---------------

struct VarCase {
  std::uint32_t n;
  std::uint32_t delta;
  double f;
  bool relaxed;
};

class RecursionVsMonteCarlo : public ::testing::TestWithParam<VarCase> {};

TEST_P(RecursionVsMonteCarlo, AgreeWithinSamplingError) {
  const auto& prm = GetParam();
  const std::uint32_t steps = 40;
  VariationRecursion rec(vp(prm.n, prm.delta, prm.f, prm.relaxed));
  rec.advance(steps);
  const auto mc = estimate_variation_mc(
      vp(prm.n, prm.delta, prm.f, prm.relaxed), steps, /*runs=*/400,
      /*seed=*/2026, /*initial_load=*/2000);
  EXPECT_NEAR(mc.vd_other, rec.vd_other(),
              0.12 * rec.vd_other() + 0.02)
      << "n=" << prm.n << " delta=" << prm.delta << " f=" << prm.f
      << " relaxed=" << prm.relaxed;
  EXPECT_NEAR(mc.ratio, rec.ratio(), 0.08 * rec.ratio() + 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecursionVsMonteCarlo,
    ::testing::Values(VarCase{8, 1, 1.1, false}, VarCase{16, 1, 1.2, false},
                      VarCase{16, 2, 1.1, false}, VarCase{10, 4, 1.2, false},
                      VarCase{16, 4, 1.2, true}),
    [](const ::testing::TestParamInfo<VarCase>& ti) {
      std::string name = "n";
      name += std::to_string(ti.param.n);
      name += "_d";
      name += std::to_string(ti.param.delta);
      name += "_f";
      name += std::to_string(static_cast<int>(ti.param.f * 10));
      if (ti.param.relaxed) name += "_relaxed";
      return name;
    });

TEST(VariationMC, RequiresAtLeastTwoRuns) {
  EXPECT_THROW(estimate_variation_mc(vp(8, 1, 1.1), 10, 1, 1), contract_error);
}

}  // namespace
}  // namespace dlb
