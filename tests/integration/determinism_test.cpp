// Determinism gate for the sparse-class fast path.
//
// The balancing hot path is allowed to change its internal bookkeeping
// (compact active-class views instead of dense O(n) scans) only if the
// simulation stays bit-identical: same RNG draw sequence, same packet
// movements, same costs.  These tests pin that down twice over:
//   1. a (seed, workload) pair run twice must produce identical load
//      vectors, operation counts, cost totals and full ledger state;
//   2. the same runs must match golden values recorded from the dense
//      reference implementation (the pre-sparse-path simulator), at
//      n = 64 (the paper's size), n = 1024 (the first scaling target)
//      and n = 4096 (the regime the O(active)-memory sparse ledger
//      storage targets; golden recorded from the dense-storage simulator
//      immediately before the storage rewrite).
//   3. the deal paths those runs miss are pinned by goldens recorded
//      from the three-stage deal (set_union merge, row-major snake,
//      replace_dealt write-back) before the one-pass deal kernel replaced
//      it: [D7] analysis mode, pair-flow accounting (a migration
//      recorder plus a hop-weighted topology), deterministic run_async
//      and the serving workload's sparse, marker-heavy deals.
// A mismatch here means the optimization changed observable behaviour —
// which the §4 analysis (and every EXPERIMENTS.md number) forbids.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/async_system.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"
#include "metrics/recorder.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "workload/serving.hpp"

namespace dlb {
namespace {

struct RunSummary {
  std::vector<std::int64_t> loads;
  std::uint64_t balance_ops = 0;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  CostTotals costs;
  // FNV-1a over every ledger cell (d and b), l_old and local_time of
  // every processor — the full observable simulator state.
  std::uint64_t state_hash = 0;
};

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

RunSummary summarize(const System& sys) {
  sys.check_invariants();
  const std::uint32_t n = sys.processors();
  RunSummary out;
  out.loads = sys.loads();
  out.balance_ops = sys.balance_operations();
  out.generated = sys.total_generated();
  out.consumed = sys.total_consumed();
  out.costs = sys.costs().totals();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint32_t p = 0; p < n; ++p) {
    const ProcessorState& st = sys.processor(p);
    h = fnv1a(h, static_cast<std::uint64_t>(st.l_old));
    h = fnv1a(h, st.local_time);
    for (std::uint32_t j = 0; j < n; ++j) {
      h = fnv1a(h, static_cast<std::uint64_t>(st.ledger.d(j)));
      h = fnv1a(h, static_cast<std::uint64_t>(st.ledger.b(j)));
    }
  }
  out.state_hash = h;
  return out;
}

BalancerConfig paper_config() {
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 4;
  cfg.borrow_cap = 4;
  return cfg;
}

Workload paper_workload(std::uint32_t n, std::uint32_t steps,
                        std::uint64_t seed) {
  Rng wl_rng(seed ^ 0x9e3779b97f4a7c15ull);
  return Workload::paper_benchmark(n, steps, WorkloadParams{}, wl_rng);
}

RunSummary run_paper_workload(std::uint32_t n, std::uint32_t steps,
                              std::uint64_t seed) {
  System sys(n, paper_config(), seed);
  sys.run(paper_workload(n, steps, seed));
  return summarize(sys);
}

void expect_identical(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.balance_ops, b.balance_ops);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.consumed, b.consumed);
  EXPECT_EQ(a.costs.balance_ops, b.costs.balance_ops);
  EXPECT_EQ(a.costs.messages, b.costs.messages);
  EXPECT_EQ(a.costs.packets_moved, b.costs.packets_moved);
  EXPECT_EQ(a.costs.packets_moved_net, b.costs.packets_moved_net);
  EXPECT_EQ(a.costs.packet_hops, b.costs.packet_hops);
  EXPECT_EQ(a.costs.partner_links, b.costs.partner_links);
  EXPECT_EQ(a.state_hash, b.state_hash);
}

// The summaries are reused by the golden tests below; computing each
// workload once keeps the suite fast at n = 1024.
const RunSummary& summary64() {
  static const RunSummary s = run_paper_workload(64, 400, 1993);
  return s;
}

const RunSummary& summary1024() {
  static const RunSummary s = run_paper_workload(1024, 100, 1993);
  return s;
}

const RunSummary& summary4096() {
  static const RunSummary s = run_paper_workload(4096, 60, 1993);
  return s;
}

TEST(Determinism, PaperWorkload64RunsTwiceIdentically) {
  expect_identical(summary64(), run_paper_workload(64, 400, 1993));
}

TEST(Determinism, PaperWorkload1024RunsTwiceIdentically) {
  expect_identical(summary1024(), run_paper_workload(1024, 100, 1993));
}

TEST(Determinism, PaperWorkload4096RunsTwiceIdentically) {
  expect_identical(summary4096(), run_paper_workload(4096, 60, 1993));
}

// Golden values recorded from the dense reference implementation (the
// simulator before the sparse-class fast path).  Any drift here means the
// optimization changed packet movements or the RNG draw sequence.
void expect_golden(const RunSummary& s, std::uint64_t balance_ops,
                   std::uint64_t packets_moved, std::uint64_t moved_net,
                   std::uint64_t packet_hops, std::uint64_t messages,
                   std::uint64_t state_hash) {
  std::int64_t load_sum = 0;
  for (std::int64_t l : s.loads) load_sum += l;
  EXPECT_EQ(load_sum, static_cast<std::int64_t>(s.generated) -
                          static_cast<std::int64_t>(s.consumed));
  EXPECT_EQ(s.balance_ops, balance_ops);
  EXPECT_EQ(s.costs.balance_ops, balance_ops);
  EXPECT_EQ(s.costs.packets_moved, packets_moved);
  EXPECT_EQ(s.costs.packets_moved_net, moved_net);
  EXPECT_EQ(s.costs.packet_hops, packet_hops);
  EXPECT_EQ(s.costs.messages, messages);
  EXPECT_EQ(s.state_hash, state_hash);
}

TEST(Determinism, GoldenTrace64) {
  const RunSummary& s = summary64();
  std::int64_t load_sum = 0;
  for (std::int64_t l : s.loads) load_sum += l;
  EXPECT_EQ(load_sum, static_cast<std::int64_t>(s.generated) -
                          static_cast<std::int64_t>(s.consumed));
  EXPECT_EQ(s.balance_ops, 9484ull);
  EXPECT_EQ(s.generated, 12990ull);
  EXPECT_EQ(s.consumed, 10444ull);
  EXPECT_EQ(s.costs.packets_moved, 425427ull);
  EXPECT_EQ(s.costs.packets_moved_net, 14016ull);
  EXPECT_EQ(s.costs.messages, 75872ull);
  EXPECT_EQ(s.costs.partner_links, 37936ull);
  EXPECT_EQ(s.state_hash, 1213408750952030548ull);
}

TEST(Determinism, GoldenTrace1024) {
  const RunSummary& s = summary1024();
  std::int64_t load_sum = 0;
  for (std::int64_t l : s.loads) load_sum += l;
  EXPECT_EQ(load_sum, static_cast<std::int64_t>(s.generated) -
                          static_cast<std::int64_t>(s.consumed));
  EXPECT_EQ(s.balance_ops, 16206ull);
  EXPECT_EQ(s.generated, 51108ull);
  EXPECT_EQ(s.consumed, 39832ull);
  EXPECT_EQ(s.costs.packets_moved, 356702ull);
  EXPECT_EQ(s.costs.packets_moved_net, 33110ull);
  EXPECT_EQ(s.costs.messages, 129648ull);
  EXPECT_EQ(s.costs.partner_links, 64824ull);
  EXPECT_EQ(s.state_hash, 8698541309493278188ull);
}

TEST(Determinism, GoldenTrace4096) {
  const RunSummary& s = summary4096();
  std::int64_t load_sum = 0;
  for (std::int64_t l : s.loads) load_sum += l;
  EXPECT_EQ(load_sum, static_cast<std::int64_t>(s.generated) -
                          static_cast<std::int64_t>(s.consumed));
  EXPECT_EQ(s.balance_ops, 41203ull);
  EXPECT_EQ(s.generated, 122673ull);
  EXPECT_EQ(s.consumed, 94687ull);
  EXPECT_EQ(s.costs.packets_moved, 571386ull);
  EXPECT_EQ(s.costs.packets_moved_net, 80664ull);
  EXPECT_EQ(s.costs.messages, 329624ull);
  EXPECT_EQ(s.costs.partner_links, 164812ull);
  EXPECT_EQ(s.state_hash, 8169236399539953127ull);
}

// ---- Deal-path goldens ---------------------------------------------------

// [D7] analysis mode: a non-initiating participant's own class is dealt
// among the other participants only (excluded columns in the deal).
TEST(Determinism, GoldenAnalysisMode64) {
  BalancerConfig cfg = paper_config();
  cfg.analysis_mode = true;
  System sys(64, cfg, 1993);
  sys.run(paper_workload(64, 400, 1993));
  expect_golden(summarize(sys), 7404ull, 325788ull, 13729ull, 325788ull,
                59232ull, 12951004998523805190ull);
}

// Hashes the on_migration stream: pair-flow accounting must report the
// same (from, to, count) flows in the same order (ItemSystem moves its
// payload objects by them).
class MigrationHash final : public Recorder {
 public:
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override {
    hash = fnv1a(fnv1a(fnv1a(hash, from), to), count);
    ++calls;
  }
  std::uint64_t hash = 0xcbf29ce484222325ull;
  std::uint64_t calls = 0;
};

// Pair-flow mode: a recorder is attached and costs are hop-weighted on
// an 8x8 torus, so every deal runs the greedy surplus/deficit matching.
TEST(Determinism, GoldenPairFlowsHopWeighted64) {
  const Topology torus = Topology::torus2d(8, 8);
  System sys(64, paper_config(), 1993, &torus);
  MigrationHash flows;
  sys.attach_recorder(&flows);
  sys.run(paper_workload(64, 400, 1993));
  expect_golden(summarize(sys), 9484ull, 425427ull, 14016ull, 1732610ull,
                75872ull, 1213408750952030548ull);
  EXPECT_EQ(flows.calls, 425426ull);
  EXPECT_EQ(flows.hash, 8445404555051999465ull);
}

// Deterministic run_async: 2 shards, epoch 16 (the benchmark's pinned
// shape); its deals run on the shard threads' own scratch.
TEST(Determinism, GoldenAsyncDeterministic64) {
  System sys(64, paper_config(), 1993);
  AsyncOptions options;
  options.epoch_steps = 16;
  sys.run_async(paper_workload(64, 400, 1993), 2, options);
  expect_golden(summarize(sys), 1710ull, 62102ull, 6262ull, 62102ull, 13680ull,
                16726175920516092482ull);
}

BalancerConfig serving_config() {
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 2;
  cfg.borrow_cap = 4;
  return cfg;
}

Workload serving_workload256() {
  ServingParams params;
  params.alpha = 1.1;
  params.sessions = 20000;
  params.flash_crowds = 1;
  return ServingWorkload::build(256, 200, params, 7);
}

// Serving: Zipf traffic at n = 256 — sparse deals, most of them with
// borrow markers in play.
TEST(Determinism, GoldenServing256) {
  System sys(256, serving_config(), 1993);
  sys.run(serving_workload256());
  expect_golden(summarize(sys), 2218ull, 4344ull, 3039ull, 4344ull, 8872ull,
                11649312090826148266ull);
}

// The same serving run's event counters, read through a metrics
// registry: however the step loop batches its counter commits, no event
// may be lost or doubled.
TEST(Determinism, GoldenServing256Counters) {
  const Workload wl = serving_workload256();
  constexpr std::uint64_t kGenerated = 20803;
  constexpr std::uint64_t kConsumed = 20651;
  constexpr std::uint64_t kBorrowTotal = 20162;
  constexpr std::uint64_t kBorrowRemote = 1;
  constexpr std::uint64_t kBorrowFail = 101;
  constexpr std::uint64_t kDecreaseSim = 40;
  System sys(256, serving_config(), 1993);
  obs::MetricsRegistry registry;
  sys.attach_metrics(&registry);
  sys.run(wl);
  EXPECT_EQ(sys.total_generated(), kGenerated);
  EXPECT_EQ(sys.total_consumed(), kConsumed);
  EXPECT_EQ(registry.counter("system.generated").value(), kGenerated);
  EXPECT_EQ(registry.counter("system.consumed").value(), kConsumed);
  EXPECT_EQ(registry.counter("system.borrow.total").value(), kBorrowTotal);
  EXPECT_EQ(registry.counter("system.borrow.remote").value(), kBorrowRemote);
  EXPECT_EQ(registry.counter("system.borrow.fail").value(), kBorrowFail);
  EXPECT_EQ(registry.counter("system.borrow.decrease_sim").value(),
            kDecreaseSim);
  EXPECT_EQ(registry.counter("system.settlements").value(), 102ull);
}

// The repeated-run harness's event counts, summed over 10 runs of the §7
// workload: Table 1's borrow counters at C = 4 and C = 32 (f = 1.1,
// delta = 1) and the [D7] ablation's balancing activity (analysis mode,
// f = 1.8, delta = 2) — the totals bench/table1_borrow and
// bench/ablation_analysis_mode divide into per-run averages.
TEST(Determinism, GoldenExperimentCounters) {
  struct Golden {
    double f;
    std::uint32_t delta, borrow_cap;
    bool analysis_mode;
    std::uint64_t borrow_total, borrow_remote, borrow_fail, decrease_sim;
    std::uint64_t balance_ops, packets_moved;
  };
  const Golden goldens[] = {
      {1.1, 1, 4, false, 83713, 1347, 1859, 2642, 128799, 1429845},
      {1.1, 1, 32, false, 84330, 19, 54, 1414, 121898, 1364034},
      {1.8, 2, 4, true, 94785, 899, 1302, 1779, 76369, 1626316},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(testing::Message() << "f=" << g.f << " delta=" << g.delta
                                    << " C=" << g.borrow_cap);
    ExperimentSpec spec;
    spec.processors = 64;
    spec.horizon = 500;
    spec.runs = 10;
    spec.seed = 1993;
    spec.config.f = g.f;
    spec.config.delta = g.delta;
    spec.config.borrow_cap = g.borrow_cap;
    spec.config.analysis_mode = g.analysis_mode;
    obs::MetricsRegistry registry;
    run_experiment(spec, paper_workload_factory(), nullptr, &registry);
    EXPECT_EQ(registry.counter("system.borrow.total").value(), g.borrow_total);
    EXPECT_EQ(registry.counter("system.borrow.remote").value(),
              g.borrow_remote);
    EXPECT_EQ(registry.counter("system.borrow.fail").value(), g.borrow_fail);
    EXPECT_EQ(registry.counter("system.borrow.decrease_sim").value(),
              g.decrease_sim);
    EXPECT_EQ(registry.counter("system.balance_ops").value(), g.balance_ops);
    EXPECT_EQ(registry.counter("system.packets_moved").value(),
              g.packets_moved);
  }
}

// The serving run through deterministic run_async (epoch 16) at 2 and 3
// shards.  Serving's fences are dominated by settlements, forced [D5]
// deals and cross-shard cancels — paths the paper-config async golden
// rarely reaches — so the full state, the costs and every borrow counter
// are pinned per shard count.
TEST(Determinism, GoldenAsyncServing256) {
  struct Golden {
    std::uint32_t shards;
    std::uint64_t balance_ops, packets_moved, moved_net, messages, state_hash;
    std::uint64_t generated, consumed;
    std::uint64_t borrow_total, borrow_remote, borrow_fail, decrease_sim;
    std::uint64_t settlements;
  };
  const Golden goldens[] = {
      {2, 1954, 4799, 2903, 7816, 9313608296193966274ull, 20705, 20568, 13679,
       241, 746, 261, 979},
      {3, 1983, 4583, 2810, 7932, 12766040606490441311ull, 20504, 20369,
       13429, 230, 791, 250, 1015},
  };
  const Workload wl = serving_workload256();
  for (const Golden& g : goldens) {
    SCOPED_TRACE(testing::Message() << g.shards << " shards");
    System sys(256, serving_config(), 1993);
    obs::MetricsRegistry registry;
    sys.attach_metrics(&registry);
    AsyncOptions options;
    options.epoch_steps = 16;
    sys.run_async(wl, g.shards, options);
    expect_golden(summarize(sys), g.balance_ops, g.packets_moved, g.moved_net,
                  g.packets_moved, g.messages, g.state_hash);
    EXPECT_EQ(sys.total_generated(), g.generated);
    EXPECT_EQ(sys.total_consumed(), g.consumed);
    EXPECT_EQ(registry.counter("system.borrow.total").value(), g.borrow_total);
    EXPECT_EQ(registry.counter("system.borrow.remote").value(),
              g.borrow_remote);
    EXPECT_EQ(registry.counter("system.borrow.fail").value(), g.borrow_fail);
    EXPECT_EQ(registry.counter("system.borrow.decrease_sim").value(),
              g.decrease_sim);
    EXPECT_EQ(registry.counter("system.settlements").value(), g.settlements);
  }
}

std::uint64_t hash_loads(std::uint64_t h, const std::vector<std::int64_t>& v) {
  for (std::int64_t l : v) h = fnv1a(h, static_cast<std::uint64_t>(l));
  return h;
}

// AsyncSystem, the virtual-clock driver of the balance transaction: fixed
// traces on a 4x4 torus and an 8-ring, at hop latency 0 (instantaneous),
// 0.5 (sub-step) and 3.0 (multi-step), with global and radius-2 partner
// draws.  Pins the final loads, every per-step snapshot, the drain time
// and every AsyncStats field, so a rewrite of the transaction must keep
// the event order, the refusals and the partner-draw RNG order exactly.
// Re-recorded once, when equal timestamps began delivering messages
// before application events: at latency 0 a step's initiators used to
// refuse each other (the torus rows had 210 aborted transactions).
TEST(Determinism, GoldenAsyncSystemReplay) {
  struct Golden {
    bool torus;
    double latency;
    unsigned radius;
    std::uint64_t loads_hash, snapshots_hash;
    double end_time;
    AsyncStats stats;
  };
  // stats: {balance_ops, refused_txns, refusals, messages, packets_moved,
  //         consume_failures, deferred_events, generated, consumed}
  const Golden goldens[] = {
      {true, 0.0, 0, 13941692728282447651ull, 1352611720003984147ull, 199,
       {603, 0, 0, 3618, 552, 5, 0, 2275, 1625}},
      {true, 0.0, 2, 14596713754258202306ull, 3617737840590529292ull, 199,
       {615, 0, 0, 3690, 606, 4, 0, 2275, 1626}},
      {true, 0.5, 0, 1397557329783690531ull, 7805849677914285400ull, 202,
       {207, 136, 407, 1651, 300, 11, 613, 2275, 1619}},
      {true, 0.5, 2, 8592200243740343779ull, 13877573428002195787ull, 201,
       {250, 140, 413, 1927, 328, 9, 601, 2275, 1621}},
      {true, 3.0, 0, 8590292925739716741ull, 16483594406952826189ull, 245,
       {47, 83, 207, 573, 160, 13, 566, 2275, 1617}},
      {true, 3.0, 2, 15795155049311242195ull, 7047309812918430801ull, 211,
       {57, 101, 250, 698, 177, 11, 589, 2275, 1619}},
      {false, 0.0, 0, 8505990223410224057ull, 11666898597462826817ull, 199,
       {220, 0, 0, 1320, 194, 1, 0, 1294, 654}},
      {false, 0.0, 2, 3277964925050422629ull, 15858288976383724125ull, 199,
       {219, 0, 0, 1314, 190, 1, 0, 1294, 654}},
      {false, 0.5, 0, 12382995442613281272ull, 7665960295050925852ull, 203,
       {94, 40, 138, 666, 130, 2, 332, 1294, 653}},
      {false, 0.5, 2, 7519345970039296196ull, 11903744398299320822ull, 199,
       {117, 44, 148, 818, 159, 2, 283, 1294, 653}},
      {false, 3.0, 0, 16533080467396225364ull, 11143132407312777618ull, 226,
       {14, 43, 100, 242, 51, 2, 206, 1294, 653}},
      {false, 3.0, 2, 3866645595970871334ull, 16034458580212121435ull, 213,
       {31, 39, 101, 319, 119, 2, 379, 1294, 653}},
  };
  const Topology torus = Topology::torus2d(4, 4);
  const Topology ring = Topology::ring(8);
  Rng torus_rng(21);
  const Trace torus_trace =
      Trace::record(Workload::uniform(16, 200, 0.7, 0.5), torus_rng);
  Rng ring_rng(22);
  const Trace ring_trace =
      Trace::record(Workload::uniform(8, 200, 0.8, 0.4), ring_rng);
  for (const Golden& g : goldens) {
    SCOPED_TRACE(testing::Message() << (g.torus ? "torus" : "ring")
                                    << " latency " << g.latency << " radius "
                                    << g.radius);
    AsyncConfig cfg;
    cfg.f = 1.1;
    cfg.delta = 2;
    cfg.hop_latency = g.latency;
    cfg.partner_radius = g.radius;
    cfg.seed = 1993;
    AsyncSystem sys(g.torus ? torus : ring, cfg);
    sys.run(g.torus ? torus_trace : ring_trace);
    std::uint64_t snapshots_hash = 0xcbf29ce484222325ull;
    for (const auto& snap : sys.snapshots())
      snapshots_hash = hash_loads(snapshots_hash, snap);
    const AsyncStats& s = sys.stats();
    EXPECT_EQ(hash_loads(0xcbf29ce484222325ull, sys.loads()), g.loads_hash);
    EXPECT_EQ(snapshots_hash, g.snapshots_hash);
    EXPECT_DOUBLE_EQ(sys.end_time(), g.end_time);
    EXPECT_EQ(s.balance_ops, g.stats.balance_ops);
    EXPECT_EQ(s.refused_txns, g.stats.refused_txns);
    EXPECT_EQ(s.refusals, g.stats.refusals);
    EXPECT_EQ(s.messages, g.stats.messages);
    EXPECT_EQ(s.packets_moved, g.stats.packets_moved);
    EXPECT_EQ(s.consume_failures, g.stats.consume_failures);
    EXPECT_EQ(s.deferred_events, g.stats.deferred_events);
    EXPECT_EQ(s.generated, g.stats.generated);
    EXPECT_EQ(s.consumed, g.stats.consumed);
  }
}

}  // namespace
}  // namespace dlb
