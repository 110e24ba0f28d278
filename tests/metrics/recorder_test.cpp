#include "metrics/recorder.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace dlb {
namespace {

TEST(LoadSeriesRecorder, AggregatesAcrossProcessorsAndRuns) {
  LoadSeriesRecorder rec(2);
  rec.on_loads(0, {1, 3});
  rec.on_loads(1, {10, 10});
  rec.on_loads(0, {5, 7});  // "second run"
  EXPECT_DOUBLE_EQ(rec.series().mean(0), 4.0);
  EXPECT_DOUBLE_EQ(rec.series().min(0), 1.0);
  EXPECT_DOUBLE_EQ(rec.series().max(0), 7.0);
  EXPECT_DOUBLE_EQ(rec.series().mean(1), 10.0);
}

TEST(LoadSeriesRecorder, IgnoresStepsBeyondHorizon) {
  LoadSeriesRecorder rec(1);
  rec.on_loads(0, {2});
  rec.on_loads(7, {99});  // silently dropped
  EXPECT_DOUBLE_EQ(rec.series().max(0), 2.0);
}

TEST(SnapshotRecorder, CapturesOnlySnapshotTimes) {
  SnapshotRecorder rec(2, {1, 3});
  rec.on_loads(0, {100, 100});
  rec.on_loads(1, {4, 6});
  rec.on_loads(2, {100, 100});
  rec.on_loads(3, {8, 2});
  EXPECT_DOUBLE_EQ(rec.at(0, 0).mean(), 4.0);
  EXPECT_DOUBLE_EQ(rec.at(0, 1).mean(), 6.0);
  EXPECT_DOUBLE_EQ(rec.at(1, 0).mean(), 8.0);
  EXPECT_DOUBLE_EQ(rec.at(1, 1).mean(), 2.0);
  EXPECT_EQ(rec.at(0, 0).count(), 1u);
}

TEST(SnapshotRecorder, AccumulatesAcrossRuns) {
  SnapshotRecorder rec(1, {0});
  rec.on_loads(0, {2});
  rec.on_loads(0, {6});
  EXPECT_DOUBLE_EQ(rec.at(0, 0).mean(), 4.0);
  EXPECT_DOUBLE_EQ(rec.at(0, 0).min(), 2.0);
  EXPECT_DOUBLE_EQ(rec.at(0, 0).max(), 6.0);
}

TEST(SnapshotRecorder, ShapeValidation) {
  SnapshotRecorder rec(2, {0});
  EXPECT_THROW(rec.on_loads(0, {1}), contract_error);
  EXPECT_THROW(rec.at(1, 0), contract_error);
  EXPECT_THROW(rec.at(0, 2), contract_error);
}

}  // namespace
}  // namespace dlb
