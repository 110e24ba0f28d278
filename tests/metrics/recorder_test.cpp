#include "metrics/recorder.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace dlb {
namespace {

TEST(BorrowCounters, BumpAndAccumulate) {
  BorrowCounters c;
  c.bump(BorrowEvent::TotalBorrow);
  c.bump(BorrowEvent::TotalBorrow);
  c.bump(BorrowEvent::RemoteBorrow);
  c.bump(BorrowEvent::BorrowFail);
  c.bump(BorrowEvent::DecreaseSim);
  EXPECT_EQ(c.total_borrow, 2u);
  EXPECT_EQ(c.remote_borrow, 1u);
  EXPECT_EQ(c.borrow_fail, 1u);
  EXPECT_EQ(c.decrease_sim, 1u);

  BorrowCounters d;
  d.bump(BorrowEvent::TotalBorrow);
  c += d;
  EXPECT_EQ(c.total_borrow, 3u);
}

TEST(BorrowCounterRecorder, PerRunAverages) {
  BorrowCounterRecorder rec;
  rec.begin_run(0);
  rec.on_borrow_event(BorrowEvent::TotalBorrow);
  rec.on_borrow_event(BorrowEvent::TotalBorrow);
  rec.on_borrow_event(BorrowEvent::RemoteBorrow);
  rec.end_run();
  rec.begin_run(1);
  rec.on_borrow_event(BorrowEvent::TotalBorrow);
  rec.end_run();
  EXPECT_EQ(rec.runs(), 2u);
  EXPECT_DOUBLE_EQ(rec.avg_total_borrow(), 1.5);
  EXPECT_DOUBLE_EQ(rec.avg_remote_borrow(), 0.5);
  EXPECT_DOUBLE_EQ(rec.avg_borrow_fail(), 0.0);
}

TEST(BorrowCounterRecorder, MisbracketedRunsThrow) {
  BorrowCounterRecorder rec;
  EXPECT_THROW(rec.end_run(), contract_error);
  rec.begin_run(0);
  EXPECT_THROW(rec.begin_run(1), contract_error);
}

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

TEST(ActivityRecorder, AveragesPerRun) {
  ActivityRecorder rec;
  rec.begin_run(0);
  rec.on_balance_op(0, 1, 10);
  rec.on_balance_op(1, 1, 20);
  rec.end_run();
  rec.begin_run(1);
  rec.on_balance_op(2, 1, 30);
  rec.end_run();
  EXPECT_EQ(rec.total_operations(), 3u);
  EXPECT_EQ(rec.total_packets_moved(), 60u);
  EXPECT_DOUBLE_EQ(rec.avg_operations_per_run(), 1.5);
  EXPECT_DOUBLE_EQ(rec.avg_packets_moved_per_run(), 30.0);
}

TEST(MultiRecorder, FansOutAllHooks) {
  BorrowCounterRecorder borrow;
  ActivityRecorder activity;
  LoadSeriesRecorder series(1);
  MultiRecorder multi;
  multi.attach(&borrow);
  multi.attach(&activity);
  multi.attach(&series);

  multi.begin_run(0);
  multi.on_borrow_event(BorrowEvent::TotalBorrow);
  multi.on_balance_op(0, 2, 5);
  multi.on_loads(0, {1, 2, 3});
  multi.end_run();

  EXPECT_DOUBLE_EQ(borrow.avg_total_borrow(), 1.0);
  EXPECT_EQ(activity.total_operations(), 1u);
  EXPECT_DOUBLE_EQ(series.series().mean(0), 2.0);
}

// A probe recording the raw arguments of the hook MultiRecorder must
// forward verbatim — on_migration has no aggregating recorder above to
// witness it.
struct ProbeRecorder final : Recorder {
  struct Migration {
    std::uint32_t from, to;
    std::uint64_t count;
  };
  std::vector<Migration> migrations;

  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override {
    migrations.push_back({from, to, count});
  }
};

TEST(MultiRecorder, FansOutMigrationsToEveryAttachedRecorder) {
  ProbeRecorder a;
  ProbeRecorder b;
  MultiRecorder multi;
  multi.attach(&a);
  multi.attach(&b);

  multi.on_migration(3, 7, 11);
  multi.on_migration(7, 3, 2);

  for (const ProbeRecorder* probe : {&a, &b}) {
    ASSERT_EQ(probe->migrations.size(), 2u);
    EXPECT_EQ(probe->migrations[0].from, 3u);
    EXPECT_EQ(probe->migrations[0].to, 7u);
    EXPECT_EQ(probe->migrations[0].count, 11u);
    EXPECT_EQ(probe->migrations[1].from, 7u);
    EXPECT_EQ(probe->migrations[1].to, 3u);
    EXPECT_EQ(probe->migrations[1].count, 2u);
  }
}

TEST(MultiRecorder, RejectsNull) {
  MultiRecorder multi;
  EXPECT_THROW(multi.attach(nullptr), contract_error);
}

}  // namespace
}  // namespace dlb
