#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace dlb {
namespace {

TEST(Experiment, RunsRequestedNumberOfRuns) {
  ExperimentSpec spec;
  spec.processors = 8;
  spec.horizon = 50;
  spec.runs = 5;
  spec.seed = 1;
  obs::MetricsRegistry registry;
  run_experiment(spec, paper_workload_factory(), nullptr, &registry);
  // Every run's System reports into the one registry: one
  // active-processor sample per step of each of the 5 runs.
  EXPECT_EQ(registry.histogram("system.step.active").count(), 5u * 50u);
}

TEST(Experiment, SeriesRecorderSeesEveryStep) {
  ExperimentSpec spec;
  spec.processors = 4;
  spec.horizon = 30;
  spec.runs = 3;
  spec.seed = 2;
  LoadSeriesRecorder recorder(30);
  run_experiment(spec, paper_workload_factory(), &recorder);
  // 4 processors x 3 runs observations per step.
  EXPECT_EQ(recorder.series().at(0).count(), 12u);
  EXPECT_EQ(recorder.series().at(29).count(), 12u);
}

TEST(Experiment, DeterministicInMasterSeed) {
  ExperimentSpec spec;
  spec.processors = 6;
  spec.horizon = 40;
  spec.runs = 4;
  spec.seed = 33;
  LoadSeriesRecorder a(40);
  LoadSeriesRecorder b(40);
  run_experiment(spec, paper_workload_factory(), &a);
  run_experiment(spec, paper_workload_factory(), &b);
  for (std::uint32_t t = 0; t < 40; ++t) {
    EXPECT_DOUBLE_EQ(a.series().mean(t), b.series().mean(t));
    EXPECT_DOUBLE_EQ(a.series().max(t), b.series().max(t));
  }
}

TEST(Experiment, DifferentSeedsProduceDifferentRuns) {
  ExperimentSpec spec;
  spec.processors = 6;
  spec.horizon = 40;
  spec.runs = 2;
  spec.seed = 1;
  LoadSeriesRecorder a(40);
  run_experiment(spec, paper_workload_factory(), &a);
  spec.seed = 2;
  LoadSeriesRecorder b(40);
  run_experiment(spec, paper_workload_factory(), &b);
  bool any_diff = false;
  for (std::uint32_t t = 0; t < 40 && !any_diff; ++t)
    any_diff = a.series().mean(t) != b.series().mean(t);
  EXPECT_TRUE(any_diff);
}

TEST(Experiment, CustomFactoryIsUsed) {
  ExperimentSpec spec;
  spec.processors = 4;
  spec.horizon = 20;
  spec.runs = 2;
  LoadSeriesRecorder recorder(20);
  run_experiment(
      spec,
      [](std::uint32_t n, std::uint32_t horizon, Rng&) {
        return Workload::one_producer(n, horizon);
      },
      &recorder);
  // One producer at probability 1: total load at the last step is exactly
  // the horizon, so the mean across 4 processors is horizon / 4.
  EXPECT_DOUBLE_EQ(recorder.series().mean(19), 20.0 / 4.0);
}

TEST(Experiment, ZeroRunsRejected) {
  ExperimentSpec spec;
  spec.runs = 0;
  obs::MetricsRegistry registry;
  EXPECT_THROW(
      run_experiment(spec, paper_workload_factory(), nullptr, &registry),
      contract_error);
}

}  // namespace
}  // namespace dlb
