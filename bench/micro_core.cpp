// Microbenchmarks (google-benchmark): throughput of the core primitives —
// the snake redistribution kernel, a full balancing operation, a global
// simulation step, and the PRNG primitives they lean on.
//
// Besides the google-benchmark suite, main() times the three hot-path
// entry points (generate, consume, balance) with a plain chrono harness
// and writes BENCH_core.json to the working directory — the
// machine-readable record the perf gate diffs across PRs.  Run with
// --benchmark_filter=NONE to emit only the JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/checkpoint.hpp"
#include "core/snake.hpp"
#include "core/system.hpp"
#include "support/rng.hpp"

namespace {

using namespace dlb;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_RngSampleDistinct(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(rng.sample_distinct(n, k, 0));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_RngSampleDistinct)->Args({64, 1})->Args({64, 4})->Args({1024, 4});

void BM_SnakeRedistribute(benchmark::State& state) {
  const auto participants = static_cast<std::size_t>(state.range(0));
  const auto classes = static_cast<std::size_t>(state.range(1));
  Rng rng(3);
  std::vector<std::vector<std::int64_t>> counts(
      participants, std::vector<std::int64_t>(classes));
  for (auto& row : counts)
    for (auto& cell : row) cell = static_cast<std::int64_t>(rng.below(100));
  for (auto _ : state) {
    auto work = counts;
    SnakeOptions opts;
    opts.start =
        static_cast<std::size_t>(state.iterations()) % participants;
    benchmark::DoNotOptimize(snake_redistribute(work, opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(participants * classes));
}
BENCHMARK(BM_SnakeRedistribute)
    ->Args({2, 64})
    ->Args({5, 64})
    ->Args({5, 1024})
    ->Args({9, 1024});

void BM_BalanceOperation(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto delta = static_cast<std::uint32_t>(state.range(1));
  BalancerConfig cfg;
  cfg.f = 1e9;  // no automatic triggers: we time force_balance alone
  cfg.delta = delta;
  System sys(n, cfg, 4);
  Rng rng(5);
  for (std::uint32_t p = 0; p < n; ++p) {
    const std::uint64_t packets = rng.below(64);
    for (std::uint64_t i = 0; i < packets; ++i) sys.generate(p);
  }
  std::uint32_t initiator = 0;
  for (auto _ : state) {
    sys.force_balance(initiator);
    initiator = (initiator + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BalanceOperation)
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({1024, 4});

void BM_SystemStep(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  BalancerConfig cfg;
  cfg.f = 1.1;
  cfg.delta = 2;
  System sys(n, cfg, 6);
  const Workload wl = Workload::uniform(n, 1u << 30, 0.6, 0.5);
  std::vector<WorkEvent> events(n);
  Rng rng(7);
  std::uint32_t t = 0;
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < n; ++p) events[p] = wl.sample(p, t, rng);
    sys.step(t, events);
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SystemStep)->Arg(16)->Arg(64)->Arg(256);

void BM_OneProducerRun(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t seed = 8;
  for (auto _ : state) {
    BalancerConfig cfg;
    cfg.f = 1.1;
    cfg.delta = 2;
    System sys(n, cfg, seed++);
    sys.run(Workload::one_producer(n, 500));
    benchmark::DoNotOptimize(sys.total_load());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          500);
}
BENCHMARK(BM_OneProducerRun)->Arg(16)->Arg(64);

// ---- BENCH_core.json: the cross-PR perf record -------------------------

struct CoreTimings {
  double generate_ns = 0;
  double consume_ns = 0;
  double balance_ns = 0;
  // Sparse-ledger heap bytes per processor, averaged over the system the
  // balance batches finished on (steady-state capacities, not the empty
  // construction state).
  double ledger_bytes_per_proc = 0;
};

// Current resident set (VmRSS, kB) from /proc/self/status; 0 when the
// field is unavailable (non-Linux).
long read_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  long value = 0;
  std::string unit;
  while (status >> key) {
    if (key == "VmRSS:") {
      status >> value >> unit;
      return value;
    }
    std::getline(status, unit);
  }
  return 0;
}

double mean_ledger_bytes(const System& sys) {
  double total = 0;
  for (std::uint32_t p = 0; p < sys.processors(); ++p)
    total += static_cast<double>(sys.processor(p).ledger.memory_bytes());
  return total / static_cast<double>(sys.processors());
}

template <typename Body>
double time_ns_per_op(std::uint64_t iters, Body&& body) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) body(i);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         static_cast<double>(iters);
}

// Builds a system in the sparse regime the fast path targets: every
// processor holds 32..63 packets of its own class and nothing else, so a
// (delta+1)-party balance sees a handful of active classes regardless of n.
// Constructed through the checkpoint loader so l_old can be preset to the
// stock — warming up via generate() is impossible here, because a
// processor with l_old == 0 triggers a balancing operation on its first
// generate regardless of f ([D1]), and those warmup balances would smear
// the stocks across classes before the timing starts.  With l_old equal
// to the stock and f = 1e9 the timed event loops are trigger-free.
System make_sparse_system(std::uint32_t n, std::uint64_t seed) {
  Rng stock_rng(seed + 1);
  std::vector<std::int64_t> stock(n);
  std::int64_t total = 0;
  for (auto& s : stock) {
    s = 32 + static_cast<std::int64_t>(stock_rng.below(32));
    total += s;
  }
  std::ostringstream os;
  os << "dlb-checkpoint 2\n";
  os << n << ' ' << 4 << ' ' << 4 << ' ' << 0 << '\n';  // delta, cap
  os.precision(17);
  os << std::hexfloat << 1e9 << std::defaultfloat << '\n';  // f
  const auto rng_state = Rng(seed).state();
  os << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2] << ' '
     << rng_state[3] << '\n';
  os << total << ' ' << 0 << ' ' << 0 << '\n';  // generated consumed ops
  os << "0 0 0 0 0 0\n";                        // cost totals
  os << -1 << '\n';                             // no partner radius
  for (std::uint32_t p = 0; p < n; ++p) {
    // l_old = stock, local_time = 0, one sparse entry: the own class.
    os << stock[p] << " 0 1\n" << p << ' ' << stock[p] << " 0\n";
  }
  std::istringstream is(os.str());
  return load_checkpoint(is, nullptr);
}

// The opposite regime, DESIGN.md §6's fully dense limit: every processor
// holds one packet of *every* class, so each deal spans k = n columns.
// This is where the compact machinery pays its overhead (per-entry keys,
// merge passes) instead of reaping sparsity — the crossover the `dense`
// BENCH_core.json row tracks.
System make_dense_system(std::uint32_t n, std::uint64_t seed) {
  std::ostringstream os;
  os << "dlb-checkpoint 2\n";
  os << n << ' ' << 4 << ' ' << 4 << ' ' << 0 << '\n';
  os.precision(17);
  os << std::hexfloat << 1e9 << std::defaultfloat << '\n';
  const auto rng_state = Rng(seed).state();
  os << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2] << ' '
     << rng_state[3] << '\n';
  os << static_cast<std::uint64_t>(n) * n << " 0 0\n";
  os << "0 0 0 0 0 0\n";
  os << -1 << '\n';
  for (std::uint32_t p = 0; p < n; ++p) {
    os << "1 0 " << n << '\n';  // l_old = d[p][p] = 1, n sparse entries
    for (std::uint32_t j = 0; j < n; ++j)
      os << j << " 1 0" << (j + 1 < n ? " " : "\n");
  }
  std::istringstream is(os.str());
  return load_checkpoint(is, nullptr);
}

CoreTimings measure_core(std::uint32_t n,
                         System (*make_system)(std::uint32_t,
                                               std::uint64_t)) {
  CoreTimings out;
  {
    System sys = make_system(n, 4);
    const std::uint64_t event_iters = 200000;
    out.generate_ns = time_ns_per_op(event_iters, [&](std::uint64_t i) {
      sys.generate(static_cast<std::uint32_t>(i % n));
    });
    out.consume_ns = time_ns_per_op(event_iters, [&](std::uint64_t i) {
      benchmark::DoNotOptimize(sys.consume(static_cast<std::uint32_t>(i % n)));
    });
  }
  // Balancing is timed in short batches over fresh systems: a long
  // force_balance loop would smear packets across ever more classes and
  // measure a self-inflicted dense regime instead of the workload the
  // factory sets up (see the determinism workload: ~a dozen active
  // classes per ledger at n = 1024).
  const std::uint64_t ops_per_batch = n >= 1024 ? 256 : 64;
  const std::uint64_t total_ops = 2048;
  double balance_total_ns = 0;
  for (std::uint64_t done = 0; done < total_ops; done += ops_per_batch) {
    System sys = make_system(n, 4 + done);
    balance_total_ns +=
        time_ns_per_op(ops_per_batch, [&](std::uint64_t i) {
          sys.force_balance(static_cast<std::uint32_t>(
              (done * 131 + i * 17) % n));
        }) *
        static_cast<double>(ops_per_batch);
    if (done + ops_per_batch >= total_ops)
      out.ledger_bytes_per_proc = mean_ledger_bytes(sys);
  }
  out.balance_ns = balance_total_ns / static_cast<double>(total_ops);
  return out;
}

struct BenchRow {
  const char* workload;
  std::uint32_t n;
  System (*make_system)(std::uint32_t, std::uint64_t);
};

void write_bench_json(const char* path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  out << "{\n  \"benchmark\": \"core_hot_paths\",\n  \"unit\": \"ns/op\","
      << "\n  \"workloads\": {\"sparse\": \"own-class packets only, "
      << "delta=4\", \"dense\": \"one packet of every class (k = n), "
      << "delta=4\"},\n  \"results\": [";
  const BenchRow rows[] = {
      {"sparse", 64, make_sparse_system},
      {"sparse", 1024, make_sparse_system},
      {"sparse", 16384, make_sparse_system},
      {"dense", 64, make_dense_system},
  };
  bool first = true;
  for (const BenchRow& row : rows) {
    // Min over repetitions: the best pass is the least disturbed by
    // scheduler noise and closest to the true cost of the code.  Five
    // repetitions — this records numbers on shared/virtualized boxes
    // whose run-to-run variance exceeds the ±30% perf gate.
    CoreTimings t = measure_core(row.n, row.make_system);
    for (int rep = 1; rep < 5; ++rep) {
      const CoreTimings r = measure_core(row.n, row.make_system);
      t.generate_ns = std::min(t.generate_ns, r.generate_ns);
      t.consume_ns = std::min(t.consume_ns, r.consume_ns);
      t.balance_ns = std::min(t.balance_ns, r.balance_ns);
      t.ledger_bytes_per_proc =
          std::min(t.ledger_bytes_per_proc, r.ledger_bytes_per_proc);
    }
    if (!first) out << ',';
    first = false;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "\n    {\"workload\": \"%s\", \"n\": %u, "
                  "\"generate_ns\": %.1f, \"consume_ns\": %.1f, "
                  "\"balance_ns\": %.1f, \"ledger_bytes_per_proc\": %.0f, "
                  "\"rss_kb\": %ld}",
                  row.workload, row.n, t.generate_ns, t.consume_ns,
                  t.balance_ns, t.ledger_bytes_per_proc, read_rss_kb());
    out << buf;
  }
  out << "\n  ]\n}\n";
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_json("BENCH_core.json");
  return 0;
}
