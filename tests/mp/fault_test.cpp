// Fault-injection layer: deterministic link faults, crash-aware
// collectives, liveness errors for mismatched programs (the paths that
// used to deadlock), and the conservation-under-faults soak of the SPMD
// balancer.
#include "mp/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "mp/communicator.hpp"
#include "mp/spmd_balance.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"

namespace dlb {
namespace {

using namespace std::chrono_literals;

TEST(FaultPlan, CrashScheduleLookup) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.kill(2, 100).kill(5, 7);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.crash_step(2), 100);
  EXPECT_EQ(plan.crash_step(5), 7);
  EXPECT_EQ(plan.crash_step(0), -1);
}

TEST(FaultPlan, LinkConfigEnables) {
  FaultPlan plan;
  plan.default_link.drop = 0.1;
  EXPECT_TRUE(plan.enabled());
}

TEST(LinkFaultState, SameSeedSameStream) {
  LinkFaultConfig config;
  config.drop = 0.3;
  config.duplicate = 0.2;
  config.delay = 0.1;
  LinkFaultState a, b;
  a.reset(99, 1, 2, config);
  b.reset(99, 1, 2, config);
  for (int i = 0; i < 1000; ++i) {
    const FaultDecision da = a.next();
    const FaultDecision db = b.next();
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.delay, db.delay);
  }
}

TEST(LinkFaultState, DistinctLinksGetDistinctStreams) {
  LinkFaultConfig config;
  config.drop = 0.5;
  LinkFaultState ab, ba;
  ab.reset(99, 1, 2, config);
  ba.reset(99, 2, 1, config);
  int differ = 0;
  for (int i = 0; i < 256; ++i)
    if (ab.next().drop != ba.next().drop) ++differ;
  EXPECT_GT(differ, 0);
}

TEST(LinkFaultState, RatesRoughlyMatchProbabilities) {
  LinkFaultConfig config;
  config.drop = 0.2;
  config.duplicate = 0.1;
  LinkFaultState link;
  link.reset(7, 0, 1, config);
  int drops = 0, dups = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const FaultDecision d = link.next();
    drops += d.drop ? 1 : 0;
    dups += d.duplicate ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, 0.2, 0.02);
  // A dropped message cannot also be duplicated, so the observed
  // duplication rate is P(dup) * P(not dropped) = 0.1 * 0.8.
  EXPECT_NEAR(static_cast<double>(dups) / kTrials, 0.08, 0.02);
}

TEST(FaultInjection, CertainDropLosesEveryMessage) {
  World world(2);
  FaultPlan plan;
  plan.default_link.drop = 1.0;
  world.set_fault_plan(plan);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {42});
    } else {
      EXPECT_FALSE(comm.recv_for(0, 5, 30ms).has_value());
    }
    EXPECT_FALSE(comm.barrier_checked());  // collectives stay reliable
  });
  EXPECT_EQ(world.fault_stats().messages_dropped, 1u);
}

TEST(FaultInjection, CertainDuplicationDeliversTwice) {
  World world(2);
  FaultPlan plan;
  plan.default_link.duplicate = 1.0;
  world.set_fault_plan(plan);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {42});
    } else {
      EXPECT_EQ(comm.recv(0, 5).payload[0], 42);
      EXPECT_EQ(comm.recv(0, 5).payload[0], 42);
      EXPECT_FALSE(comm.try_recv(0, 5).has_value());
    }
  });
  EXPECT_EQ(world.fault_stats().messages_duplicated, 1u);
}

TEST(FaultInjection, DelayedMessagesStillArriveInOrderPerLink) {
  // With delay = 1 every message is stashed and released by the next
  // send on the same link (or the sender's termination flush): delivery
  // is late but nothing is lost and per-link order is preserved.
  World world(2);
  FaultPlan plan;
  plan.default_link.delay = 1.0;
  world.set_fault_plan(plan);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      for (std::int64_t i = 0; i < 5; ++i) comm.send(1, 5, {i});
    } else {
      for (std::int64_t i = 0; i < 5; ++i)
        EXPECT_EQ(comm.recv(0, 5).payload[0], i);
    }
  });
  EXPECT_EQ(world.fault_stats().messages_delayed, 5u);
  EXPECT_EQ(world.fault_stats().messages_dropped, 0u);
}

// The decorator's discard report: every application message it does not
// deliver appears in World::discarded() exactly once, with its payload.
// The four ways: dropped, sent to a dead rank, still held when the
// destination died, still held when the sender crashed.  Control-plane
// traffic is never diced, so it never appears.
TEST(FaultInjection, DiscardReportListsEveryUndeliveredMessageOnce) {
  constexpr int kTag = 5;
  constexpr int kControl = Transport::kReservedTagFloor;
  const auto reported = [&](const World& world) {
    std::vector<std::pair<int, std::int64_t>> out;  // (source, word)
    for (const MpMessage& msg : world.discarded()) {
      EXPECT_EQ(msg.tag, kTag);
      EXPECT_EQ(msg.payload.size(), 1u);
      out.emplace_back(msg.source, msg.payload[0]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  World world(3);
  FaultPlan drop_all;
  drop_all.default_link.drop = 1.0;
  world.set_fault_plan(drop_all);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, kTag, {11});
      comm.send(2, kTag, {12});
      comm.send(1, kControl, {99});
    } else if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv(0, kControl).payload[0], 99);
    }
  });
  EXPECT_EQ(reported(world),
            (std::vector<std::pair<int, std::int64_t>>{{0, 11}, {0, 12}}));
  EXPECT_EQ(world.fault_stats().messages_dropped, 2u);

  // delay = 1 holds every message until the next one on its link.
  FaultPlan hold_all;
  hold_all.default_link.delay = 1.0;
  hold_all.kill(2, 1);
  world.set_fault_plan(hold_all);
  world.launch([](Comm& comm) {
    comm.tick();
    if (comm.rank() == 0) comm.send(2, kTag, {21});  // held; 2 then dies
    if (comm.rank() == 2) comm.send(1, kTag, {31});  // held; sender dies
    if (comm.rank() == 1) {
      comm.send(0, kTag, {41});  // released by the next send
      comm.send(0, kTag, {42});  // released by the termination flush
      comm.send(0, kControl, {98});
    }
    comm.barrier_checked();
    comm.tick();  // rank 2 dies entering step 1
    EXPECT_TRUE(comm.barrier_checked());
    if (comm.rank() == 0) {
      comm.send(2, kTag, {22});  // to a dead rank
      EXPECT_EQ(comm.recv(1, kTag).payload[0], 41);
      EXPECT_EQ(comm.recv(1, kControl).payload[0], 98);
    }
  });
  EXPECT_TRUE(world.rank_dead(2));
  EXPECT_EQ(reported(world), (std::vector<std::pair<int, std::int64_t>>{
                                 {0, 21}, {0, 22}, {2, 31}}));
  EXPECT_EQ(world.fault_stats().sends_to_dead, 1u);
}

TEST(FaultInjection, ScheduledCrashDegradesCollectives) {
  World world(4);
  FaultPlan plan;
  plan.kill(2, 3);
  world.set_fault_plan(plan);
  world.launch([](Comm& comm) {
    for (std::uint32_t step = 0; step < 6; ++step) {
      comm.tick();  // rank 2 dies entering step 3
      const GatherResult r = comm.allgather_checked(comm.rank());
      if (step < 3) {
        EXPECT_FALSE(r.degraded) << "step " << step;
        EXPECT_EQ(r.live_count(), 4);
      } else {
        EXPECT_TRUE(r.degraded) << "step " << step;
        EXPECT_EQ(r.live_count(), 3);
        EXPECT_EQ(r.alive[2], 0);
        EXPECT_EQ(r.values[2], 0);  // dead slot contributes zero
        EXPECT_EQ(r.values[1], 1);
      }
    }
  });
  EXPECT_TRUE(world.rank_dead(2));
  EXPECT_FALSE(world.rank_dead(0));
  EXPECT_EQ(world.fault_stats().ranks_dead, 1u);
}

TEST(FaultInjection, SurvivorsAgreeOnAliveMaskEveryRound) {
  // Replicated decisions need every survivor to observe the *same*
  // alive mask in the same round; deaths land only at tick() so the
  // mask may not be split across a round.
  const int n = 5;
  World world(n);
  FaultPlan plan;
  plan.kill(1, 2).kill(3, 4);
  world.set_fault_plan(plan);
  std::vector<std::vector<std::uint64_t>> masks(
      static_cast<std::size_t>(n));
  world.launch([&](Comm& comm) {
    for (std::uint32_t step = 0; step < 8; ++step) {
      comm.tick();
      const GatherResult r = comm.allgather_checked(0);
      std::uint64_t mask = 0;
      for (int i = 0; i < n; ++i)
        if (r.alive[static_cast<std::size_t>(i)]) mask |= 1ULL << i;
      masks[static_cast<std::size_t>(comm.rank())].push_back(mask);
    }
  });
  const auto& reference = masks[0];
  ASSERT_EQ(reference.size(), 8u);
  for (int rnk = 0; rnk < n; ++rnk) {
    if (world.rank_dead(rnk)) continue;
    EXPECT_EQ(masks[static_cast<std::size_t>(rnk)], reference)
        << "rank " << rnk;
  }
}

TEST(FaultInjection, RecvFromCrashedRankFailsFastNotForever) {
  World world(2);
  FaultPlan plan;
  plan.kill(1, 0);
  world.set_fault_plan(plan);
  world.launch([](Comm& comm) {
    if (comm.rank() == 1) {
      comm.tick();  // dies immediately
      FAIL() << "rank 1 must not survive its crash step";
    }
    // recv_for must come back empty once the peer is dead -- and well
    // before the full deadline, since nothing can ever arrive.
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(comm.recv_for(1, 9, 10000ms).has_value());
    EXPECT_LT(std::chrono::steady_clock::now() - start, 5000ms);
  });
}

// Satellite (a): entering a collective after a peer *terminated* (ran
// off the end of its program -- not a scheduled crash) used to deadlock;
// now it is a liveness contract error.
TEST(Liveness, BarrierAfterPeerTerminationRaises) {
  World world(2);
  EXPECT_THROW(world.launch([](Comm& comm) {
                 if (comm.rank() == 1) return;  // terminates at once
                 comm.barrier();                // would hang forever
               }),
               contract_error);
}

TEST(Liveness, RecvFromTerminatedPeerRaises) {
  World world(2);
  EXPECT_THROW(world.launch([](Comm& comm) {
                 if (comm.rank() == 1) return;  // never sends
                 comm.recv(1, 5);               // would hang forever
               }),
               contract_error);
}

TEST(Liveness, QueuedMessagesRemainReceivableAfterTermination) {
  // Termination only forbids waiting for *future* traffic; messages the
  // peer sent before exiting stay deliverable.
  World world(2);
  world.launch([](Comm& comm) {
    if (comm.rank() == 1) {
      comm.send(0, 5, {1});
      comm.send(0, 5, {2});
      return;
    }
    EXPECT_EQ(comm.recv(1, 5).payload[0], 1);
    EXPECT_EQ(comm.recv(1, 5).payload[0], 2);
  });
}

TEST(Liveness, WorldIsReusableAfterCrashLaunch) {
  World world(3);
  FaultPlan plan;
  plan.kill(1, 0);
  world.set_fault_plan(plan);
  world.launch([](Comm& comm) {
    if (comm.rank() == 1) comm.tick();
    EXPECT_TRUE(comm.barrier_checked() || comm.rank() == 1);
  });
  EXPECT_TRUE(world.rank_dead(1));
  // Re-arm with an inert plan: the next launch is fully fault-free.
  world.set_fault_plan(FaultPlan{});
  world.launch([](Comm& comm) {
    EXPECT_EQ(comm.allreduce_sum(1), 3);
  });
  EXPECT_FALSE(world.rank_dead(1));
  EXPECT_EQ(world.fault_stats().ranks_dead, 0u);
}

// Satellite (c): collectives and point-to-point traffic interleaved
// across many rounds on a lossy machine -- the concurrency stress for
// the mailbox + collective-round turnover machinery.
TEST(FaultStress, MixedCollectiveAndP2PTrafficTerminates) {
  const int n = 8;
  World world(n);
  FaultPlan plan;
  plan.seed = 2024;
  plan.default_link.drop = 0.10;
  plan.default_link.duplicate = 0.05;
  world.set_fault_plan(plan);
  world.launch([n](Comm& comm) {
    std::int64_t acks = 0;
    for (int round = 0; round < 200; ++round) {
      comm.tick();
      const int next = (comm.rank() + 1) % n;
      const int prev = (comm.rank() + n - 1) % n;
      comm.send(next, round, {round});
      // The message may be dropped or duplicated; drain whatever came.
      if (comm.recv_for(prev, round, 1ms).has_value()) ++acks;
      while (comm.try_recv(prev, round).has_value()) ++acks;
      const GatherResult r = comm.allgather_checked(acks);
      EXPECT_FALSE(r.degraded);
      EXPECT_EQ(r.live_count(), n);
    }
  });
  const FaultStats stats = world.fault_stats();
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_GT(stats.messages_duplicated, 0u);
}

Trace paper_trace(std::uint32_t n, std::uint32_t steps) {
  Rng wl_rng(31);
  const Workload wl =
      Workload::paper_benchmark(n, steps, WorkloadParams{}, wl_rng);
  Rng trace_rng(32);
  return Trace::record(wl, trace_rng);
}

// Acceptance: a seeded fault schedule with drop <= 20% and at least one
// crash on a 400-step SPMD run terminates without deadlock and the
// conservation check passes.
TEST(FaultSoak, SpmdBalancerConservesUnderDropAndCrash) {
  const std::uint32_t n = 8, steps = 400;
  const Trace trace = paper_trace(n, steps);
  World world(static_cast<int>(n));
  FaultPlan plan;
  plan.seed = 99;
  plan.default_link.drop = 0.20;
  plan.default_link.duplicate = 0.05;
  plan.kill(3, 200);
  plan.journal_interval = 10;
  world.set_fault_plan(plan);
  SpmdParams params;
  params.recv_timeout = 25ms;
  const SpmdReport report = run_spmd_balancer(world, trace, params);
  EXPECT_TRUE(report.conserved)
      << report.total_load << " != " << report.generated << " - "
      << report.consumed << " - " << report.transfer_lost << " - "
      << report.crash_lost;
  EXPECT_EQ(report.ranks_dead, 1u);
  EXPECT_GT(report.degraded_rounds, 0u);
  EXPECT_GT(report.messages_dropped, 0u);
  EXPECT_EQ(report.total_load,
            report.generated - report.consumed - report.transfer_lost -
                report.crash_lost);
}

TEST(FaultSoak, FaultFreeRunHasCleanLedger) {
  const std::uint32_t n = 8, steps = 200;
  const Trace trace = paper_trace(n, steps);
  World world(static_cast<int>(n));
  const SpmdReport report = run_spmd_balancer(world, trace, SpmdParams{});
  EXPECT_TRUE(report.conserved);
  EXPECT_EQ(report.transfer_lost, 0);
  EXPECT_EQ(report.crash_lost, 0);
  EXPECT_EQ(report.recv_timeouts, 0u);
  EXPECT_EQ(report.degraded_rounds, 0u);
  EXPECT_EQ(report.ranks_dead, 0u);
  EXPECT_EQ(report.total_load, report.generated - report.consumed);
}

// Reproducibility: the whole faulty trace -- loads, ledger, counters --
// is a pure function of (workload seed, decision seed, fault plan).
// Drop/duplicate/crash faults are deterministic; delay faults are
// excluded here because releases race real-time recv deadlines.  The
// receive deadline is set generously so the only expiries are the
// deterministic ones (packet genuinely dropped, peer dead) -- a tight
// deadline would race scheduler jitter and fork the trace.
TEST(FaultSoak, SameSeedSamePlanReproducesTheRun) {
  const std::uint32_t n = 6, steps = 150;
  const Trace trace = paper_trace(n, steps);
  FaultPlan plan;
  plan.seed = 7;
  plan.default_link.drop = 0.15;
  plan.kill(2, 80);
  plan.journal_interval = 5;
  SpmdParams params;
  params.recv_timeout = 100ms;
  auto run_once = [&] {
    World world(static_cast<int>(n));
    world.set_fault_plan(plan);
    return run_spmd_balancer(world, trace, params);
  };
  const SpmdReport a = run_once();
  const SpmdReport b = run_once();
  EXPECT_EQ(a.final_loads, b.final_loads);
  EXPECT_EQ(a.transfer_lost, b.transfer_lost);
  EXPECT_EQ(a.crash_lost, b.crash_lost);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.rounds_initiated, b.rounds_initiated);
  EXPECT_EQ(a.packets_shipped, b.packets_shipped);
  EXPECT_EQ(a.recv_timeouts, b.recv_timeouts);
  EXPECT_EQ(a.degraded_rounds, b.degraded_rounds);
  EXPECT_TRUE(a.conserved);
  EXPECT_TRUE(b.conserved);
}

}  // namespace
}  // namespace dlb
