// Thread-safety regression tests.  These exist to fail under
// ThreadSanitizer (the tsan preset runs this binary): each test pins a
// const API that used to carry a hidden mutable write — a benign-looking
// data race that blocked sharing these objects across threads — plus the
// determinism and conservation contracts of the async sharded engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/ledger.hpp"
#include "core/system.hpp"
#include "support/check.hpp"
#include "metrics/recorder.hpp"
#include "support/rng.hpp"
#include "workload/serving.hpp"
#include "workload/workload.hpp"

namespace dlb {
namespace {

BalancerConfig cfg(double f = 1.5, std::uint32_t delta = 2,
                   std::uint32_t cap = 4) {
  BalancerConfig c;
  c.f = f;
  c.delta = delta;
  c.borrow_cap = cap;
  return c;
}

// Workload::find_phase used to advance a mutable per-processor cursor
// from const sample(), racing when two threads shared one Workload.  Now
// lookup is stateless: concurrent const sampling must be clean (TSan)
// and agree with a single-threaded pass (each thread brings its own Rng,
// seeded identically, so the draws match).
TEST(SharedWorkload, ConcurrentSamplingIsRaceFreeAndDeterministic) {
  Rng layout(11);
  const WorkloadParams params;
  const Workload wl = Workload::paper_benchmark(32, 400, params, layout);

  std::vector<WorkEvent> expected;
  {
    Rng rng(5005);
    for (std::uint32_t t = 0; t < wl.horizon(); ++t)
      for (std::uint32_t p = 0; p < wl.processors(); ++p)
        expected.push_back(wl.sample(p, t, rng));
  }

  constexpr int kThreads = 4;
  std::vector<std::vector<WorkEvent>> results(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&wl, &out = results[static_cast<std::size_t>(i)]] {
        Rng rng(5005);
        for (std::uint32_t t = 0; t < wl.horizon(); ++t)
          for (std::uint32_t p = 0; p < wl.processors(); ++p)
            out.push_back(wl.sample(p, t, rng));
      });
    }
  }
  for (const auto& result : results) {
    ASSERT_EQ(result.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result[i].generate, expected[i].generate);
      EXPECT_EQ(result[i].consume, expected[i].consume);
    }
  }
}

// Ledger::d/b const lookups write nothing: the owner's class reads its
// kept slot and every other class is searched for, with no memo to
// refresh, so threads reading one shared ledger at once do not race.
TEST(SharedLedger, ConcurrentConstReadsAreRaceFree) {
  Ledger ledger(256, 6);
  for (std::uint32_t j = 0; j < 256; j += 3) ledger.add_real(j, j + 1);
  ASSERT_EQ(ledger.borrow_nth(1), 3u);  // borrowable: 0, 3, 6, 9, ...
  ASSERT_EQ(ledger.borrow_nth(2), 9u);  // now 0, 6, 9, ...
  const Ledger& shared = ledger;

  constexpr int kThreads = 4;
  std::vector<std::int64_t> sums(kThreads, 0);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&shared, i, &sum = sums[static_cast<std::size_t>(i)]] {
        // Interleave ascending and descending scans so the threads keep
        // asking for *different* classes at the same time, the owner's
        // among them.
        for (int pass = 0; pass < 50; ++pass) {
          for (std::uint32_t j = 0; j < 256; ++j) {
            const std::uint32_t q = (i % 2 == 0) ? j : 255 - j;
            sum += shared.d(q) + shared.b(q);
          }
        }
      });
    }
  }
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(sums[0], sums[static_cast<std::size_t>(i)]);
}

// run_async contract (deterministic mode): a (seed, workload, shards,
// epoch_steps) tuple fully determines the run — the token-serialized
// operation layer leaves no room for timing to leak into the result.
TEST(RunAsync, SameSeedAndShardsReproduceTheRun) {
  Rng layout(21);
  const WorkloadParams params;
  const Workload wl = Workload::paper_benchmark(64, 500, params, layout);
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    System a(wl.processors(), cfg(), 909);
    System b(wl.processors(), cfg(), 909);
    a.run_async(wl, shards);
    b.run_async(wl, shards);
    EXPECT_EQ(a.loads(), b.loads()) << shards << " shards";
    EXPECT_EQ(a.total_generated(), b.total_generated());
    EXPECT_EQ(a.total_consumed(), b.total_consumed());
    EXPECT_EQ(a.balance_operations(), b.balance_operations());
  }
}

// The epoch length is part of the determinism key, not a correctness
// knob: any value reproduces, including the degenerate per-step fence.
TEST(RunAsync, EpochLengthReproducesIncludingDegenerate) {
  Rng layout(7);
  const WorkloadParams params;
  const Workload wl = Workload::paper_benchmark(48, 300, params, layout);
  for (std::uint32_t epoch_steps : {1u, 5u, 64u}) {
    AsyncOptions opts;
    opts.epoch_steps = epoch_steps;
    System a(wl.processors(), cfg(), 1234);
    System b(wl.processors(), cfg(), 1234);
    a.run_async(wl, 3, opts);
    b.run_async(wl, 3, opts);
    EXPECT_EQ(a.loads(), b.loads()) << "epoch_steps=" << epoch_steps;
    EXPECT_EQ(a.balance_operations(), b.balance_operations());
  }
}

// Packet conservation holds at every epoch fence, for any shard count —
// concurrent local phases plus token-slot settlements must never lose or
// invent a packet.  post_step_check makes shard 0 verify the full
// invariant set at each epoch close.
TEST(RunAsync, ConservesPacketsAtEveryEpochFence) {
  const Workload wl = Workload::sparse_hotspot(96, 300, 13, 0.8, 0.5);
  for (std::uint32_t shards : {1u, 2u, 5u}) {
    System sys(wl.processors(), cfg(), 4321);
    sys.set_post_step_check(true);  // check_invariants per epoch
    sys.run_async(wl, shards);
    EXPECT_EQ(sys.total_load(),
              static_cast<std::int64_t>(sys.total_generated()) -
                  static_cast<std::int64_t>(sys.total_consumed()));
  }
}

// Relaxed mode trades reproducibility away but NOT conservation: with
// balancing operations running concurrently under the per-processor
// locks, the ledgers must still balance to the global generated-minus-
// consumed total at the end.
TEST(RunAsync, RelaxedModeStillConservesPackets) {
  const Workload wl = Workload::sparse_hotspot(128, 400, 17, 0.8, 0.6);
  AsyncOptions opts;
  opts.relaxed_order = true;
  for (std::uint32_t shards : {2u, 4u}) {
    System sys(wl.processors(), cfg(), 99);
    sys.set_post_step_check(true);  // full invariant check after the run
    sys.run_async(wl, shards, opts);
    EXPECT_EQ(sys.total_load(),
              static_cast<std::int64_t>(sys.total_generated()) -
                  static_cast<std::int64_t>(sys.total_consumed()));
  }
}

// Settlement-heavy regime: consume outpaces generate and the borrow cap
// is tiny, so the cross-shard settle/remote-exchange/forced-balance path
// (the most intricate lock choreography in the engine) runs constantly.
TEST(RunAsync, SurvivesSettlementHeavyTraffic) {
  const Workload wl = Workload::uniform(64, 250, 0.3, 0.9);
  for (const bool relaxed : {false, true}) {
    AsyncOptions opts;
    opts.relaxed_order = relaxed;
    opts.epoch_steps = 8;
    System sys(wl.processors(), cfg(1.5, 2, 1), 777);
    sys.set_post_step_check(true);
    sys.run_async(wl, 4, opts);
    EXPECT_EQ(sys.total_load(),
              static_cast<std::int64_t>(sys.total_generated()) -
                  static_cast<std::int64_t>(sys.total_consumed()))
        << (relaxed ? "relaxed" : "deterministic");
  }
}

// Zipf serving traffic through both async modes: the hot head keeps a
// few processors saturated, so borrows, settlements and cross-shard
// triggers run on almost every step.  post_step_check verifies the full
// invariant set at each epoch fence (deterministic) or once after the
// run (relaxed); both must conserve packets.
TEST(RunAsync, ServingWorkloadConservesInBothModes) {
  ServingParams params;
  params.sessions = 20000;
  const Workload wl = ServingWorkload::build(256, 200, params, 7);
  for (const bool relaxed : {false, true}) {
    for (const std::uint32_t shards : {2u, 4u}) {
      AsyncOptions opts;
      opts.relaxed_order = relaxed;
      System sys(wl.processors(), cfg(1.1, 2, 4), 1993);
      sys.set_post_step_check(true);
      sys.run_async(wl, shards, opts);
      EXPECT_GT(sys.balance_operations(), 0u);
      EXPECT_EQ(sys.total_load(),
                static_cast<std::int64_t>(sys.total_generated()) -
                    static_cast<std::int64_t>(sys.total_consumed()))
          << (relaxed ? "relaxed" : "deterministic") << ", " << shards
          << " shards";
    }
  }
}

// The async driver has no serial per-step point to observe loads from,
// so attaching a recorder is a contract violation, not a silent no-op.
TEST(RunAsync, RejectsAttachedRecorder) {
  class Null final : public Recorder {};
  const Workload wl = Workload::uniform(8, 10, 0.5, 0.5);
  Null tape;
  System sys(wl.processors(), cfg(), 1);
  sys.attach_recorder(&tape);
  EXPECT_THROW(sys.run_async(wl, 2), contract_error);
}

}  // namespace
}  // namespace dlb
