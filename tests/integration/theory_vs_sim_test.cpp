// Integration: the paper's theorems, checked against the *full* n-processor
// simulator (ledger bookkeeping, borrow protocol and all) rather than the
// stripped one-processor model.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "core/system.hpp"
#include "support/stats.hpp"
#include "theory/bounds.hpp"
#include "theory/operators.hpp"

namespace dlb {
namespace {

TEST(TheoryVsSim, OneProducerRatioTracksFixpoint) {
  // Full System, one producer.  The §3 fixed point describes the ratio at
  // the instants *after* a balancing operation; a measurement at a fixed
  // global time samples a uniformly random phase of the growth cycle, in
  // which the producer holds between FIX and f·FIX times the others'
  // load.  (This phase factor is exactly why Theorem 4 carries an f²
  // fudge.)  So the measured ratio must lie in [FIX, f·FIX] and be close
  // to the mid-cycle value FIX·(1+f)/2.
  const std::uint32_t n = 16;
  BalancerConfig cfg;
  cfg.f = 1.5;
  cfg.delta = 2;
  ModelParams mp{static_cast<double>(n), static_cast<double>(cfg.delta),
                 cfg.f};
  const double fix = fixpoint(mp);

  RunningMoments producer;
  RunningMoments others;
  Rng seeder(7);
  for (int run = 0; run < 100; ++run) {
    System sys(n, cfg, seeder.next());
    sys.run(Workload::one_producer(n, 2000));
    producer.add(static_cast<double>(sys.load(0)));
    for (std::uint32_t i = 1; i < n; ++i)
      others.add(static_cast<double>(sys.load(i)));
  }
  const double measured_ratio = producer.mean() / others.mean();
  EXPECT_GT(measured_ratio, fix * 0.95);
  EXPECT_LT(measured_ratio, cfg.f * fix * 1.05);
  EXPECT_NEAR(measured_ratio, fix * (1.0 + cfg.f) / 2.0, 0.15 * fix);
}

TEST(TheoryVsSim, Theorem4BoundHoldsOnPaperWorkload) {
  // E(l_i) <= f²·δ/(δ+1−f) · (E(l_j) + C) for all pairs i, j: verify with
  // the measured expected loads at several times on the §7 benchmark.
  ExperimentSpec spec;
  spec.processors = 32;
  spec.horizon = 400;
  spec.runs = 60;
  spec.seed = 11;
  spec.config.f = 1.4;
  spec.config.delta = 2;
  spec.config.borrow_cap = 4;

  SnapshotRecorder recorder(spec.processors, {100, 250, 399});
  run_experiment(spec, paper_workload_factory(), &recorder);

  const double factor =
      theorem4_factor(spec.config.delta, spec.config.f);
  for (std::size_t snap = 0; snap < 3; ++snap) {
    double max_mean = 0.0;
    double min_mean = 1e18;
    for (std::uint32_t p = 0; p < spec.processors; ++p) {
      const double m = recorder.at(snap, p).mean();
      max_mean = std::max(max_mean, m);
      min_mean = std::min(min_mean, m);
    }
    EXPECT_LE(max_mean,
              factor * (min_mean + spec.config.borrow_cap) + 1e-9)
        << "snapshot " << snap;
  }
}

TEST(TheoryVsSim, TighterDeltaImprovesBalance) {
  // Thm 2 predicts better balance for larger delta; verify the measured
  // cross-processor spread shrinks.
  auto spread_for = [](std::uint32_t delta) {
    ExperimentSpec spec;
    spec.processors = 32;
    spec.horizon = 300;
    spec.runs = 30;
    spec.seed = 13;
    spec.config.f = 1.4;
    spec.config.delta = delta;
    SnapshotRecorder recorder(spec.processors, {299});
    run_experiment(spec, paper_workload_factory(), &recorder);
    double max_mean = 0.0;
    double min_mean = 1e18;
    for (std::uint32_t p = 0; p < spec.processors; ++p) {
      const double m = recorder.at(0, p).mean();
      max_mean = std::max(max_mean, m);
      min_mean = std::min(min_mean, m);
    }
    return max_mean - min_mean;
  };
  EXPECT_LT(spread_for(8), spread_for(1));
}

TEST(TheoryVsSim, SmallerFCostsMoreOperations) {
  // §6 tradeoff: lower f => more balancing operations on the same demand.
  auto ops_for = [](double f) {
    BalancerConfig cfg;
    cfg.f = f;
    cfg.delta = 1;
    System sys(16, cfg, 17);
    sys.run(Workload::one_producer(16, 1000));
    return sys.balance_operations();
  };
  EXPECT_GT(ops_for(1.05), ops_for(1.5));
  EXPECT_GT(ops_for(1.5), ops_for(2.5));
}

TEST(TheoryVsSim, LargerDeltaCostsMoreMessagesPerOp) {
  // The per-operation *message* cost is exactly 2δ (invitation +
  // assignment per partner); migration volume per op need not grow with
  // δ because better balance shrinks the surplus each op has to move.
  auto messages_per_op = [](std::uint32_t delta) {
    BalancerConfig cfg;
    cfg.f = 1.3;
    cfg.delta = delta;
    System sys(32, cfg, 19);
    sys.run(Workload::one_producer(32, 2000));
    return static_cast<double>(sys.costs().totals().messages) /
           static_cast<double>(sys.costs().totals().balance_ops);
  };
  EXPECT_DOUBLE_EQ(messages_per_op(1), 2.0);
  EXPECT_DOUBLE_EQ(messages_per_op(8), 16.0);
}

TEST(TheoryVsSim, VariationOfFullSystemIsSmall) {
  // §5's qualitative claim on the real algorithm: the per-processor load
  // at a fixed late time has a small coefficient of variation across runs.
  ExperimentSpec spec;
  spec.processors = 16;
  spec.horizon = 300;
  spec.runs = 80;
  spec.seed = 23;
  spec.config.f = 1.1;
  spec.config.delta = 4;
  SnapshotRecorder recorder(spec.processors, {299});
  run_experiment(spec, paper_workload_factory(), &recorder);
  for (std::uint32_t p = 0; p < spec.processors; ++p) {
    EXPECT_LT(recorder.at(0, p).variation_density(), 1.0) << "proc " << p;
  }
}

}  // namespace
}  // namespace dlb
