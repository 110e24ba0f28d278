// Unit tests for the observability layer (src/obs) plus its wiring into
// the step engines: metrics instruments against brute-force oracles,
// trace buffer semantics, scoped timers, and the per-subsystem
// instrumentation (System, ThreadedSystem, mp::World).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "mp/communicator.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "runtime/threaded_system.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

// ---- Instruments ------------------------------------------------------

TEST(Counter, AccumulatesAndDefaultsToOne) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWinsAndSignedDeltas) {
  obs::Gauge g;
  g.set(7);
  EXPECT_EQ(g.value(), 7);
  g.add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of((1ull << 40) + 5), 40u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}), 63u);
  EXPECT_EQ(obs::Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_lo(10), 1024u);
}

TEST(Histogram, CountSumMinMaxMean) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  for (std::uint64_t v : {5u, 10u, 100u, 3u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 118u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 118.0 / 4.0);
}

// The bucket-level guarantee: the reported quantile lies in the same
// power-of-two bucket as the exact order statistic of the recorded
// values (and inside [min, max]).
TEST(Histogram, PercentileMatchesSortedOracleAtBucketLevel) {
  Rng rng(20260807);
  obs::Histogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 5000; ++i) {
    // Spread over ~18 binary orders of magnitude, like latencies do.
    const std::uint64_t v = rng.below(1u << (1 + rng.below(18)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const std::size_t n = values.size();
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(n) + 0.5);
    rank = std::min(std::max<std::size_t>(rank, 1), n);
    const std::uint64_t exact = values[rank - 1];
    const double estimate = h.percentile(q);
    const std::size_t bucket = obs::Histogram::bucket_of(exact);
    const double lo = static_cast<double>(obs::Histogram::bucket_lo(bucket));
    const double hi =
        bucket + 1 < obs::Histogram::kBuckets
            ? static_cast<double>(obs::Histogram::bucket_lo(bucket + 1))
            : static_cast<double>(h.max());
    // The estimate is clamped to [min, max], which can pull it out of
    // the theoretical bucket range only toward the true extremes.
    EXPECT_GE(estimate, std::min(lo, static_cast<double>(values.front())))
        << "q=" << q;
    EXPECT_LE(estimate, std::max(hi, static_cast<double>(values.back())))
        << "q=" << q;
  }
  // The extremes stay inside the recorded range (the clamp).
  EXPECT_GE(h.percentile(0.0), static_cast<double>(values.front()));
  EXPECT_LE(h.percentile(1.0), static_cast<double>(values.back()));
}

TEST(Histogram, PercentileIsExactWhenOneValueRepeats) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(4096);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 4096.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 4096.0);
}

TEST(Histogram, CellBoundariesRefineBuckets) {
  // Sub-bucket cells subdivide every power-of-two bucket 16 ways; the
  // aggregate view must still report the 64 coarse buckets unchanged.
  EXPECT_EQ(obs::Histogram::kCells,
            obs::Histogram::kBuckets * obs::Histogram::kSubBuckets);
  EXPECT_EQ(obs::Histogram::cell_of(0), 0u);
  // Bucket 5 covers [32, 64): value 40 sits in sub-bucket (40-32)/2 = 4.
  EXPECT_EQ(obs::Histogram::cell_of(40),
            5 * obs::Histogram::kSubBuckets + 4);
  EXPECT_DOUBLE_EQ(obs::Histogram::cell_lo(5 * obs::Histogram::kSubBuckets),
                   32.0);
  EXPECT_DOUBLE_EQ(
      obs::Histogram::cell_lo(5 * obs::Histogram::kSubBuckets + 4), 40.0);
  // The top cell's upper edge is 2^64, without overflowing.
  EXPECT_GT(obs::Histogram::cell_hi(obs::Histogram::kCells - 1),
            obs::Histogram::cell_lo(obs::Histogram::kCells - 1));
  // cell_of stays in range at the extremes.
  EXPECT_LT(obs::Histogram::cell_of(~std::uint64_t{0}),
            obs::Histogram::kCells);
  obs::Histogram h;
  h.record(40);
  const auto cells = h.cells();
  EXPECT_EQ(cells[5 * obs::Histogram::kSubBuckets + 4], 1u);
  EXPECT_EQ(h.buckets()[5], 1u);
}

// The log-linear refinement bounds the quantile's relative error by
// one sub-bucket width: 1/16 = 6.25% of the value (plus interpolation
// slack), versus a full power of two (100%) before.  Checked against
// the exact order statistic on heavy-tailed data at the quantiles the
// serving bench reports.
TEST(Histogram, PercentileRelativeErrorWithinSubBucket) {
  Rng rng(20260809);
  obs::Histogram h;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.below(1u << (1 + rng.below(18)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const std::size_t n = values.size();
    std::size_t rank =
        static_cast<std::size_t>(q * static_cast<double>(n) + 0.5);
    rank = std::min(std::max<std::size_t>(rank, 1), n);
    const double exact = static_cast<double>(values[rank - 1]);
    const double estimate = h.percentile(q);
    // One sub-bucket of relative slack, plus a small absolute floor for
    // the tiny-value buckets where cells are single integers.
    EXPECT_NEAR(estimate, exact, exact / 16.0 + 2.0) << "q=" << q;
  }
}

TEST(Histogram, SnapshotCarriesP999) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricValue* m = snap.find("lat");
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->p999, m->p50);
  EXPECT_GE(m->p999, m->p99);
  EXPECT_NEAR(m->p999, 999.0, 999.0 / 16.0 + 2.0);
  std::ostringstream json;
  snap.write_json(json);
  EXPECT_NE(json.str().find("\"p999\""), std::string::npos);
  std::ostringstream csv;
  snap.write_csv(csv);
  EXPECT_NE(csv.str().find("p999"), std::string::npos);
}

// ---- Registry and snapshot --------------------------------------------

TEST(MetricsRegistry, ReturnsStableInstrumentsByName) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), contract_error);
  EXPECT_THROW(reg.histogram("x"), contract_error);
}

TEST(MetricsRegistry, SnapshotCarriesEveryInstrument) {
  obs::MetricsRegistry reg;
  reg.counter("ops").add(5);
  reg.gauge("level").set(-2);
  obs::Histogram& h = reg.histogram("lat");
  h.record(10);
  h.record(30);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.values.size(), 3u);
  const obs::MetricValue* ops = snap.find("ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->value, 5);
  const obs::MetricValue* level = snap.find("level");
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->value, -2);
  const obs::MetricValue* lat = snap.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_EQ(lat->total, 40u);
  EXPECT_GT(lat->p99, 0.0);
  EXPECT_EQ(snap.find("missing"), nullptr);
}

TEST(MetricsSnapshot, JsonAndCsvExport) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").add(1);
  reg.gauge("b\"quote").set(2);
  reg.histogram("c.lat").record(7);
  const obs::MetricsSnapshot snap = reg.snapshot();
  std::ostringstream json;
  snap.write_json(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("a.count"), std::string::npos);
  EXPECT_NE(j.find("b\\\"quote"), std::string::npos);  // escaped
  std::ostringstream csv;
  snap.write_csv(csv);
  EXPECT_NE(csv.str().find("name,kind,value"), std::string::npos);
  EXPECT_NE(csv.str().find("c.lat"), std::string::npos);
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::json_escape("plain"), "plain");
}

// ---- Trace buffer -----------------------------------------------------

TEST(TraceBuffer, RecordsSpansAndInstants) {
  obs::TraceBuffer trace(16);
  trace.record("work", "test", 100, 50, 1, 7);
  trace.instant("marker", "test", 2, 9);
  ASSERT_EQ(trace.size(), 2u);
  const auto events = trace.events();
  EXPECT_STREQ(events[0].name, "work");
  EXPECT_EQ(events[0].ts_ns, 100u);
  EXPECT_EQ(events[0].dur_ns, 50u);
  EXPECT_EQ(events[0].tid, 1u);
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_EQ(events[1].dur_ns, 0u);  // instant
}

TEST(TraceBuffer, DropsNewestWhenFullAndCounts) {
  obs::TraceBuffer trace(4);
  for (std::uint64_t i = 0; i < 7; ++i)
    trace.record("e", "test", i, 1, 0, i);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 3u);
  // The first four events survive — drop-newest, not wraparound.
  const auto events = trace.events();
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].arg, i);
}

TEST(TraceBuffer, DisabledBufferRecordsNothing) {
  obs::TraceBuffer trace(8);
  trace.set_enabled(false);
  trace.record("e", "test", 0, 1, 0);
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  trace.set_enabled(true);
  trace.record("e", "test", 0, 1, 0);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceBuffer, ClearResetsEventsAndDropCounter) {
  obs::TraceBuffer trace(2);
  for (int i = 0; i < 5; ++i) trace.record("e", "t", 0, 1, 0);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  trace.record("e", "t", 0, 1, 0);
  EXPECT_EQ(trace.size(), 1u);
}

TEST(TraceBuffer, ChromeJsonHasMetadataSpansAndInstants) {
  obs::TraceBuffer trace(16);
  trace.set_thread_name(0, "main");
  trace.set_thread_name(3, "shard 2");
  trace.record("span", "cat", 1000, 2000, 3, 11);
  trace.instant("mark", "cat", 0, 5);
  std::ostringstream os;
  trace.write_chrome_json(os, "proc");
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("process_name"), std::string::npos);
  EXPECT_NE(j.find("thread_name"), std::string::npos);
  EXPECT_NE(j.find("shard 2"), std::string::npos);
  EXPECT_NE(j.find("\"ph\": \"X\""), std::string::npos);  // complete span
  EXPECT_NE(j.find("\"ph\": \"i\""), std::string::npos);  // instant
  EXPECT_NE(j.find("\"ph\": \"M\""), std::string::npos);  // metadata
}

// ---- Scoped timers ----------------------------------------------------

TEST(ScopedTimer, FeedsHistogramAndTraceSpan) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("scope_ns");
  obs::TraceBuffer trace(8);
  {
    const obs::ScopedTimer timer(&h, &trace, "scope", "test", 4, 42);
  }
  EXPECT_EQ(h.count(), 1u);
  ASSERT_EQ(trace.size(), 1u);
  const auto events = trace.events();
  EXPECT_STREQ(events[0].name, "scope");
  EXPECT_EQ(events[0].tid, 4u);
  EXPECT_EQ(events[0].arg, 42u);
}

TEST(ScopedTimer, UnarmedWithNullSinksOrDisabledTrace) {
  {
    const obs::ScopedTimer timer(nullptr);  // must be a no-op
  }
  obs::TraceBuffer trace(8);
  trace.set_enabled(false);
  {
    const obs::ScopedTimer timer(nullptr, &trace, "e", "t", 0);
  }
  EXPECT_EQ(trace.size(), 0u);
}

TEST(Stopwatch, MeasuresElapsedTimeMonotonically) {
  const obs::Stopwatch watch;
  const std::uint64_t a = watch.elapsed_ns();
  const std::uint64_t b = watch.elapsed_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(watch.elapsed_us(), 0.0);
}

// ---- System wiring ----------------------------------------------------

TEST(SystemObs, CountersAgreeWithSystemInspection) {
  BalancerConfig cfg;
  cfg.f = 1.2;
  cfg.delta = 2;
  System sys(16, cfg, 99);
  obs::MetricsRegistry reg;
  sys.attach_metrics(&reg);
  Rng wl_rng(7);
  const std::uint32_t horizon = 200;
  sys.run(Workload::paper_benchmark(16, horizon, WorkloadParams{}, wl_rng));
  EXPECT_EQ(reg.counter("system.generated").value(), sys.total_generated());
  EXPECT_EQ(reg.counter("system.consumed").value(), sys.total_consumed());
  EXPECT_EQ(reg.counter("system.balance_ops").value(),
            sys.balance_operations());
  EXPECT_GT(sys.balance_operations(), 0u);
  // One duration sample per balancing operation; one active sample per
  // step.
  EXPECT_EQ(reg.histogram("system.balance_ns").count(),
            sys.balance_operations());
  EXPECT_EQ(reg.histogram("system.step.active").count(), horizon);
}

TEST(SystemObs, MetricsMatchRunWithoutMetrics) {
  // Attaching the registry must not perturb the simulation itself.
  BalancerConfig cfg;
  cfg.f = 1.3;
  cfg.delta = 1;
  Rng wl_rng(11);
  const Workload wl = Workload::uniform(8, 150, 0.7, 0.5);
  System plain(8, cfg, 5);
  plain.run(wl);
  System instrumented(8, cfg, 5);
  obs::MetricsRegistry reg;
  obs::TraceBuffer trace(1 << 12);
  instrumented.attach_metrics(&reg);
  instrumented.attach_trace(&trace);
  instrumented.run(wl);
  EXPECT_EQ(plain.loads(), instrumented.loads());
  EXPECT_EQ(plain.balance_operations(), instrumented.balance_operations());
  EXPECT_GT(trace.size(), 0u);
}

TEST(SystemObs, TraceCarriesStepAndBalanceSpans) {
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 2;
  System sys(8, cfg, 3);
  obs::TraceBuffer trace(1 << 12);
  sys.attach_trace(&trace);
  Rng wl_rng(13);
  sys.run(Workload::paper_benchmark(8, 100, WorkloadParams{}, wl_rng));
  std::set<std::string> names;
  for (const obs::TraceEvent& e : trace.events()) names.insert(e.name);
  EXPECT_TRUE(names.count("step"));
  EXPECT_TRUE(names.count("balance_op"));
}

// ---- ThreadedSystem wiring --------------------------------------------

TEST(ThreadedObs, PublishesAggregatedStatsAsCounters) {
  Rng rng(31);
  const Trace trace = Trace::record(Workload::hotspot(4, 300, 1, 0.9, 0.2),
                                    rng);
  ThreadedConfig cfg;
  cfg.f = 1.2;
  cfg.delta = 2;
  cfg.seed = 31;
  ThreadedSystem sys(4, cfg);
  obs::MetricsRegistry reg;
  sys.attach_metrics(&reg);
  sys.run(trace);
  const ThreadedStats& stats = sys.stats();
  EXPECT_GT(stats.balance_ops, 0u);
  EXPECT_EQ(reg.counter("threaded.balance_ops").value(), stats.balance_ops);
  EXPECT_EQ(reg.counter("threaded.messages").value(), stats.messages);
  EXPECT_EQ(reg.counter("threaded.generated").value(), stats.generated);
  EXPECT_EQ(reg.counter("threaded.consumed").value(), stats.consumed);
  EXPECT_EQ(reg.counter("threaded.fault.timeouts").value(), stats.timeouts);
  EXPECT_EQ(reg.gauge("threaded.lost_load").value(), stats.lost_load);
  // Every initiated transaction gets one duration sample (including
  // the ones whose partners all refused).
  EXPECT_GE(reg.histogram("threaded.txn_ns").count(), stats.balance_ops);
}

TEST(ThreadedObs, TraceRecordsTransactionSpansPerProcessor) {
  Rng rng(37);
  const Trace workload =
      Trace::record(Workload::hotspot(4, 300, 1, 0.9, 0.2), rng);
  ThreadedConfig cfg;
  cfg.f = 1.2;
  cfg.delta = 2;
  cfg.seed = 37;
  ThreadedSystem sys(4, cfg);
  obs::TraceBuffer trace(1 << 14);
  sys.attach_trace(&trace);
  sys.run(workload);
  std::uint64_t txn_spans = 0;
  std::uint64_t lock_spans = 0;
  for (const obs::TraceEvent& e : trace.events()) {
    const std::string name = e.name;
    if (name == "balance_txn") ++txn_spans;
    if (name == "partner_lock") ++lock_spans;
    EXPECT_LT(e.tid, 4u);  // one track per processor
  }
  EXPECT_GE(txn_spans, sys.stats().balance_ops);
  EXPECT_GT(lock_spans, 0u);
}

// ---- mp::World wiring -------------------------------------------------

TEST(WorldObs, CountsDeliveredTrafficPerLink) {
  World world(2);
  obs::MetricsRegistry reg;
  world.attach_metrics(&reg);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, {1, 2, 3});
      comm.send(1, 7, {4});
    }
    if (comm.rank() == 1) {
      (void)comm.recv(0, 7);
      (void)comm.recv(0, 7);
    }
    comm.barrier();
  });
  EXPECT_EQ(reg.counter("mp.link.0->1.messages").value(), 2u);
  EXPECT_EQ(reg.counter("mp.link.0->1.bytes").value(), 4u * 8u);
  EXPECT_EQ(reg.counter("mp.link.1->0.messages").value(), 0u);
  EXPECT_EQ(reg.counter("mp.messages").value(), 2u);
  EXPECT_EQ(reg.counter("mp.bytes").value(), 4u * 8u);
  EXPECT_GE(reg.counter("mp.collective_rounds").value(), 1u);
}

TEST(WorldObs, CountsDropsAndRecvTimeouts) {
  World world(2);
  FaultPlan plan;
  plan.default_link.drop = 1.0;  // every message vanishes
  world.set_fault_plan(plan);
  obs::MetricsRegistry reg;
  world.attach_metrics(&reg);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 3, {42});
    if (comm.rank() == 1) {
      const auto msg =
          comm.recv_for(0, 3, std::chrono::milliseconds(30));
      EXPECT_FALSE(msg.has_value());
    }
    comm.barrier();
  });
  EXPECT_EQ(reg.counter("mp.dropped").value(), 1u);
  EXPECT_EQ(reg.counter("mp.recv_timeouts").value(), 1u);
  EXPECT_EQ(reg.counter("mp.link.0->1.messages").value(), 0u);
  EXPECT_EQ(world.fault_stats().messages_dropped, 1u);
}

TEST(WorldObs, DetachedWorldRunsUnchanged) {
  World world(2);
  world.attach_metrics(nullptr);
  std::int64_t total = 0;
  world.launch([&](Comm& comm) {
    const std::int64_t sum = comm.allreduce_sum(comm.rank() + 1);
    if (comm.rank() == 0) total = sum;
  });
  EXPECT_EQ(total, 3);
}

}  // namespace
}  // namespace dlb
