// Scalability: the paper's claim that the balancing quality is
// independent of the network size ("achieves very good performance even
// on networks containing up to 1024 processors"; Theorems 2/4 are
// n-free).
//
// We sweep n from 16 to 65536 and measure, on the §7 workload scaled to
// each size, (a) the cross-processor coefficient of variation at the end
// of the run, (b) the producer/rest ratio in the one-producer model vs
// the n-free bound δ/(δ+1−f), and (c) wall-clock per simulated step (the
// simulator's own scalability).
//
// Expectation: (a) and (b) flat or improving in n, always under the
// bound; (c) grows only with the event loop (O(n) per step) — balancing
// work is O(δ · active classes) per operation since the sparse-class fast
// path, so us/step should grow far slower than the old O(n·δ) regime.
//
// Sizes n ≥ 16384 only became reachable with the O(active) sparse ledger
// (dense ledgers would cost O(n²) bytes — ~64 GB at n = 65536); they run
// a shortened horizon (≤ 50 steps, 1 run) because the point there is
// per-step cost and memory feasibility, not end-state quality, and the
// one-producer ratio is skipped: its 40·n-step horizon is infeasible and
// the bound it checks is n-free anyway.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "core/system.hpp"
#include "metrics/imbalance.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "support/stats.hpp"
#include "theory/operators.hpp"
#include "workload/serving.hpp"

using namespace dlb;

namespace {

// One engine's timed pass plus the work that pass did.  The engines do
// different work on the same schedule — async-det evaluates triggers at
// epoch fences, so duplicate triggers coalesce — so a us/step figure is
// only comparable next to its deal count and end-state CoV.
struct EngineRun {
  double us = 0.0;
  std::uint64_t deals = 0;
  double cov = 0.0;
  std::int64_t load = 0;  // packets still queued at the horizon
};

// Best of three fresh-System passes: one timed pass is a ~millisecond
// window, and on a shared box a single scheduler preemption doubles it —
// the min is the pass the perf gate can actually reproduce.  Deals, CoV
// and load come from that same pass.
template <class Drive>
EngineRun time_engine(std::uint32_t n, const BalancerConfig& cfg,
                      std::uint64_t seed, std::uint32_t steps,
                      Drive&& drive) {
  EngineRun best;
  for (int rep = 0; rep < 3; ++rep) {
    System sys(n, cfg, seed);
    const obs::Stopwatch watch;
    drive(sys);
    const double us = watch.elapsed_us() / static_cast<double>(steps);
    if (rep == 0 || us < best.us)
      best = EngineRun{us, sys.balance_operations(),
                       measure_imbalance(sys.loads()).cov,
                       sys.total_load()};
  }
  return best;
}

// ---- Serving sweep (--workload serving) -------------------------------
//
// The Zipf serving workload compiles into the same phase schedule the
// engines already consume, so this sweep answers: does the skewed,
// bursty demand change the engines' per-step cost or the end-state
// balance quality as n grows?  Rows are keyed "serving_step" and carry
// step_us (serial), async_us (deterministic) and relaxed_us per engine,
// each with its deal count and final CoV.  tools/perf_check.sh runs this
// sweep up to n = 1024 and gates the serial step_us of those rows.
int run_serving_sweep(const CliOptions& opts, Rng& master,
                      bench::JsonRows& json) {
  const auto steps =
      std::min(static_cast<std::uint32_t>(opts.get_int("steps")), 200u);
  const auto max_n = static_cast<std::uint32_t>(opts.get_int("max_n"));
  const auto shards = static_cast<std::uint32_t>(opts.get_int("shards"));
  const double alpha = std::stod(opts.get_string("alpha"));
  const auto sessions =
      static_cast<std::uint64_t>(opts.get_int("sessions"));

  bench::print_header(
      "Serving workload sweep — Zipf skew through all engines",
      "skewed bursty demand: balance quality stays flat in n, step cost "
      "tracks the active set");

  TextTable table({"n", "engine", "shards", "us/step", "deals", "final CoV",
                   "end backlog/proc"});
  for (std::uint32_t n = 64; n <= std::min(max_n, 16384u); n *= 4) {
    ServingParams params;
    params.alpha = alpha;
    params.sessions = sessions;
    const Workload wl = ServingWorkload::build(n, steps, params,
                                               master.next());
    BalancerConfig cfg;
    cfg.f = 1.1;
    cfg.delta = 2;
    const std::uint32_t async_shards = std::min(shards, n);
    AsyncOptions relaxed;
    relaxed.relaxed_order = true;
    const auto time_run = [&](auto&& drive) {
      return time_engine(n, cfg, 20260809, steps, drive);
    };
    const EngineRun serial = time_run([&](System& sys) { sys.run(wl); });
    const EngineRun async = time_run(
        [&](System& sys) { sys.run_async(wl, async_shards); });
    const EngineRun relax = time_run(
        [&](System& sys) { sys.run_async(wl, async_shards, relaxed); });
    const auto add_row = [&](const char* engine, std::uint32_t engine_shards,
                             const EngineRun& run) {
      table.row()
          .cell(static_cast<std::size_t>(n))
          .cell(engine)
          .cell(static_cast<std::size_t>(engine_shards))
          .cell(run.us, 1)
          .cell(static_cast<std::size_t>(run.deals))
          .cell(run.cov, 3)
          .cell(static_cast<double>(run.load) / static_cast<double>(n), 2);
    };
    add_row("serial", 1, serial);
    add_row("async-det", async_shards, async);
    add_row("async-relaxed", async_shards, relax);
    json.row()
        .set("workload", "serving_step")
        .set("n", n)
        .set("alpha", alpha)
        .set("shards", async_shards)
        .set("step_us", serial.us)
        .set("async_us", async.us)
        .set("relaxed_us", relax.us)
        .set("balance_ops", serial.deals)
        .set("async_balance_ops", async.deals)
        .set("relaxed_balance_ops", relax.deals)
        .set("final_cov", serial.cov)
        .set("async_final_cov", async.cov)
        .set("relaxed_final_cov", relax.cov)
        .set("backlog_per_proc",
             static_cast<double>(serial.load) / static_cast<double>(n));
  }
  table.print(std::cout);
  std::cout << "\n(all engines drive the same compiled serving schedule; "
               "the hot Zipf head keeps a few processors saturated, so "
               "the balancer — not the scheduler — determines how much "
               "backlog survives to the horizon.  Compare us/step only "
               "together with deals: the engines do different work.)\n";

  const std::string json_out = opts.get_string("json_out");
  if (!json_out.empty() && json.write_file(json_out))
    std::cout << "(json written to " << json_out << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  opts.add_int("steps", 300, "global time steps")
      .add_int("runs", 5, "runs per size")
      .add_int("max_n", 65536, "largest network size")
      .add_int("sparse_max_n", 1048576, "largest size for the sparse sweep")
      .add_int("active", 64, "active processors in the sparse sweep")
      .add_int("shards", 4, "threads for the async engines")
      .add_int("trace_n", 65536, "network size for the instrumented run")
      .add_int("seed", 1993, "master seed")
      .add_string("workload", "paper", "paper (dense+sparse sweeps) or "
                                       "serving (Zipf serving sweep)")
      .add_string("alpha", "1.1", "serving sweep: Zipf exponent")
      .add_int("sessions", 2000000, "serving sweep: user-session universe")
      .add_string("json_out", "", "write the measured rows as JSON "
                                  "(BENCH_core.json shape)")
      .add_string("metrics_out", "", "write the instrumented run's metrics "
                                     "snapshot as JSON")
      .add_string("trace_out", "", "write the instrumented run's trace as "
                                   "Chrome trace-event JSON (Perfetto)");
  if (!opts.parse(argc, argv)) return 1;
  const auto steps = static_cast<std::uint32_t>(opts.get_int("steps"));
  const auto runs = static_cast<std::uint32_t>(opts.get_int("runs"));
  const auto max_n = static_cast<std::uint32_t>(opts.get_int("max_n"));
  Rng master(static_cast<std::uint64_t>(opts.get_int("seed")));
  bench::JsonRows json;

  const std::string workload = opts.get_string("workload");
  if (workload == "serving") return run_serving_sweep(opts, master, json);
  if (workload != "paper") {
    std::cerr << "unknown --workload '" << workload
              << "' (expected paper|serving)\n";
    return 1;
  }

  bench::print_header(
      "Scalability — balance quality vs network size (Thms 2/4 are n-free)",
      "CoV and producer ratio flat in n; bound d/(d+1-f) holds at 4096");

  const double f = 1.1;
  const std::uint32_t delta = 2;
  const double bound = fixpoint_limit(delta, f);

  TextTable table({"n", "final CoV (paper wl)", "producer ratio",
                   "FIX(n,d,f)", "bound d/(d+1-f)", "us/step"});
  for (std::uint32_t n = 16; n <= max_n; n *= 4) {
    // Large sizes: shortened horizon, single run, no one-producer part
    // (see the header comment).
    const bool large = n >= 16384;
    const std::uint32_t run_steps = large ? std::min(steps, 50u) : steps;
    const std::uint32_t run_count = large ? 1 : runs;
    RunningMoments cov;
    RunningMoments ratio;
    double us_per_step = 0.0;
    for (std::uint32_t r = 0; r < run_count; ++r) {
      // (a) §7 workload quality.
      {
        BalancerConfig cfg;
        cfg.f = f;
        cfg.delta = delta;
        System sys(n, cfg, master.next());
        Rng wl_rng = master.split();
        const Workload wl = Workload::paper_benchmark(
            n, run_steps, WorkloadParams{}, wl_rng);
        const obs::Stopwatch watch;
        sys.run(wl);
        us_per_step += watch.elapsed_us() /
                       static_cast<double>(run_steps) /
                       static_cast<double>(run_count);
        cov.add(measure_imbalance(sys.loads()).cov);
      }
      // (b) one-producer ratio vs the n-free bound.  The horizon scales
      // with n so every processor ends with ~40 packets — at O(1)
      // packets per processor the ratio would measure integer
      // quantization, not the algorithm.
      if (!large) {
        BalancerConfig cfg;
        cfg.f = f;
        cfg.delta = delta;
        System sys(n, cfg, master.next());
        sys.run(Workload::one_producer(n, std::max(steps * 4, 40 * n)));
        RunningMoments others;
        for (std::uint32_t i = 1; i < n; ++i)
          others.add(static_cast<double>(sys.load(i)));
        if (others.mean() > 0)
          ratio.add(static_cast<double>(sys.load(0)) / others.mean());
      }
    }
    TextTable& row = table.row();
    row.cell(static_cast<std::size_t>(n)).cell(cov.mean(), 3);
    if (large) {
      row.cell("-");
    } else {
      row.cell(ratio.mean(), 3);
    }
    row.cell(fixpoint(ModelParams{static_cast<double>(n),
                                  static_cast<double>(delta), f}),
             3)
        .cell(bound, 3)
        .cell(us_per_step, 1);
    bench::JsonRows::Row& jrow = json.row();
    jrow.set("workload", "paper_quality")
        .set("n", n)
        .set("final_cov", cov.mean())
        .set("us_per_step", us_per_step);
    if (!large) jrow.set("producer_ratio", ratio.mean());
  }
  table.print(std::cout);
  std::cout << "\n(The ratio is sampled mid-growth-cycle, so compare it "
               "against f*FIX rather than FIX itself; it must stay below "
               "f*bound = "
            << format_double(f * bound, 3) << ".)\n";

  // ---- Event-batched step engine on sparse demand ----------------------
  //
  // The §7 workload keeps every processor inside a phase, so the table
  // above measures the dense regime.  Here only `active` processors have
  // phases: the batched driver's step cost is O(active + balancing) while
  // the reference loop still samples all n processors — the gap is the
  // point of the compiled schedule.  The reference row is skipped above
  // 2^16 (it is precisely the O(n) wall the batching removes); the async
  // rows run the barrier-free engine in its deterministic epoch-fenced
  // mode and its relaxed free-running mode.
  const auto sparse_max_n =
      static_cast<std::uint32_t>(opts.get_int("sparse_max_n"));
  const auto active = static_cast<std::uint32_t>(opts.get_int("active"));
  const auto shards = static_cast<std::uint32_t>(opts.get_int("shards"));
  const std::uint32_t sparse_steps = 50;

  bench::print_header(
      "Event-batched stepping — sparse demand (active processors fixed)",
      "batched us/step flat in n; reference grows O(n); speedup >= 5x at "
      "n = 65536");

  TextTable sparse_table({"n", "active", "engine", "shards", "us/step",
                          "speedup vs ref", "deals", "final CoV",
                          "allocs/step"});
  for (std::uint32_t n = 16384; n <= sparse_max_n; n *= 4) {
    BalancerConfig cfg;
    // f = 1.1 makes every load fluctuation trigger a balance, burying the
    // step loop (the thing this sweep measures) under balancing work that
    // is identical in both columns; f = 2 keeps balancing present but
    // proportionate.
    cfg.f = 2.0;
    cfg.delta = delta;
    const Workload wl =
        Workload::sparse_hotspot(n, sparse_steps, std::min(active, n),
                                 0.8, 0.5);
    const std::uint32_t async_shards = std::min(shards, n);
    AsyncOptions relaxed;
    relaxed.relaxed_order = true;
    const auto time_run = [&](auto&& drive) {
      return time_engine(n, cfg, 20260807, sparse_steps, drive);
    };
    const bool with_reference = n <= 65536;
    const EngineRun ref =
        with_reference
            ? time_run([&](System& sys) { sys.run_reference(wl); })
            : EngineRun{};
    const EngineRun batched = time_run([&](System& sys) { sys.run(wl); });
    const EngineRun async = time_run(
        [&](System& sys) { sys.run_async(wl, async_shards); });
    const EngineRun relax = time_run(
        [&](System& sys) { sys.run_async(wl, async_shards, relaxed); });
    // ---- Alloc-instrumented pass (DESIGN.md §11) ---------------------
    //
    // Separate from the timed passes: each engine re-runs with metrics
    // attached and the zero-alloc opt-in (reserve_classes) on, and the
    // alloc.{count,warmup_end_step} publications collapse into one
    // allocs-per-step number — 0.0 when the allocator went quiet within
    // the first half of the horizon (the steady state is
    // allocation-free), count/steps otherwise.  A longer horizon than
    // the timed sweep so "half the horizon" is a real warmup budget.
    // Skipped above 2^16: the opt-in pre-sizes every ledger, and that
    // setup cost is the one part of the contract that scales with n.
    const std::uint32_t alloc_steps = 200;
    double serial_alloc = -1.0;
    double async_alloc = -1.0;
    double relaxed_alloc = -1.0;
    if (n <= 65536) {
      const Workload awl = Workload::sparse_hotspot(
          n, alloc_steps, std::min(active, n), 0.8, 0.5);
      const auto allocs_per_step = [&](const char* prefix,
                                       std::uint32_t warmup_units,
                                       auto&& drive) -> double {
        obs::MetricsRegistry registry;
        BalancerConfig acfg = cfg;
        // The class universe is the `active` producers' classes; 4x
        // headroom keeps ledger writes allocation-free (§11).
        acfg.reserve_classes = std::min(n, 4 * active);
        System sys(n, acfg, 20260807);
        sys.attach_metrics(&registry);
        drive(sys);
        const obs::MetricsSnapshot snap = registry.snapshot();
        const std::string p(prefix);
        const obs::MetricValue* count = snap.find(p + ".alloc.count");
        const obs::MetricValue* warmup =
            snap.find(p + ".alloc.warmup_end_step");
        if (count == nullptr || warmup == nullptr) return -1.0;
        if (warmup->value <= static_cast<std::int64_t>(warmup_units / 2))
          return 0.0;
        return static_cast<double>(count->value) /
               static_cast<double>(alloc_steps);
      };
      serial_alloc = allocs_per_step(
          "system", alloc_steps, [&](System& sys) { sys.run(awl); });
      // The epoch-fenced engine tallies per epoch, not per step, so its
      // warmup budget is in epochs.
      const AsyncOptions det;
      async_alloc = allocs_per_step(
          "async", (alloc_steps + det.epoch_steps - 1) / det.epoch_steps,
          [&](System& sys) { sys.run_async(awl, async_shards); });
      relaxed_alloc = allocs_per_step(
          "async", alloc_steps, [&](System& sys) {
            sys.run_async(awl, async_shards, relaxed);
          });
    }

    const auto add_row = [&](const char* engine, std::uint32_t engine_shards,
                             const EngineRun& run, double allocs) {
      TextTable& row = sparse_table.row();
      row.cell(static_cast<std::size_t>(n))
          .cell(static_cast<std::size_t>(std::min(active, n)))
          .cell(engine)
          .cell(static_cast<std::size_t>(engine_shards))
          .cell(run.us, 1);
      if (with_reference) {
        row.cell(ref.us / run.us, 1);
      } else {
        row.cell("-");
      }
      row.cell(static_cast<std::size_t>(run.deals)).cell(run.cov, 3);
      if (allocs >= 0.0) {
        row.cell(allocs, 1);
      } else {
        row.cell("-");
      }
    };
    if (with_reference) add_row("reference", 1, ref, -1.0);
    add_row("serial", 1, batched, serial_alloc);
    add_row("async-det", async_shards, async, async_alloc);
    add_row("async-relaxed", async_shards, relax, relaxed_alloc);

    bench::JsonRows::Row& jrow = json.row();
    jrow.set("workload", "sparse_step")
        .set("n", n)
        .set("active", std::min(active, n))
        .set("shards", shards)
        .set("step_us", batched.us)
        .set("balance_ops", batched.deals)
        .set("final_cov", batched.cov);
    if (with_reference) jrow.set("ref_us", ref.us);
    if (serial_alloc >= 0.0) jrow.set("allocs_per_step", serial_alloc);
    // A separate row keyed (async_step, n) so perf_check.sh gates the
    // deterministic engine's step_us with the same machinery as the
    // serial sweep; relaxed_us and the speedup ride along as context.
    bench::JsonRows::Row& arow = json.row();
    arow.set("workload", "async_step")
        .set("n", n)
        .set("active", std::min(active, n))
        .set("shards", async_shards)
        .set("step_us", async.us)
        .set("balance_ops", async.deals)
        .set("final_cov", async.cov)
        .set("relaxed_us", relax.us)
        .set("relaxed_balance_ops", relax.deals)
        .set("relaxed_final_cov", relax.cov)
        .set("speedup_vs_serial", batched.us / relax.us);
    if (async_alloc >= 0.0) arow.set("allocs_per_step", async_alloc);
    if (relaxed_alloc >= 0.0)
      arow.set("relaxed_allocs_per_step", relaxed_alloc);
  }
  sparse_table.print(std::cout);
  std::cout << "\n(The async rows are the barrier-free engine: epoch-fenced "
               "deterministic mode, then relaxed free-running mode.  "
               "Compare us/step only together with deals: async-det "
               "coalesces triggers at its epoch fences, so the engines do "
               "different work on the same schedule.)\n";

  // ---- Instrumented run (opt-in) ---------------------------------------
  //
  // One extra run_async with the observability layer attached: the
  // metrics snapshot carries the async.* drain/quiescence histograms and
  // message/epoch counters, the trace renders one track per shard with
  // its local-phase and token-slot spans in Perfetto.  Kept separate
  // from the timed passes above so they always measure the obs-detached
  // hot path.
  const std::string metrics_out = opts.get_string("metrics_out");
  const std::string trace_out = opts.get_string("trace_out");
  if (!metrics_out.empty() || !trace_out.empty()) {
    const auto trace_n = static_cast<std::uint32_t>(opts.get_int("trace_n"));
    obs::MetricsRegistry registry;
    obs::TraceBuffer trace;
    trace.set_enabled(true);
    BalancerConfig cfg;
    cfg.f = 2.0;
    cfg.delta = delta;
    System sys(trace_n, cfg, 20260807);
    sys.attach_metrics(&registry);
    sys.attach_trace(&trace);
    const Workload wl = Workload::sparse_hotspot(
        trace_n, sparse_steps, std::min(active, trace_n), 0.8, 0.5);
    sys.run_async(wl, std::min(shards, trace_n));
    const obs::MetricsSnapshot snap = registry.snapshot();
    bench::JsonRows::Row& jrow = json.row();
    jrow.set("workload", "instrumented")
        .set("n", trace_n)
        .set("shards", std::min(shards, trace_n));
    bench::JsonRows::append_metrics(jrow, snap, "system.");
    bench::JsonRows::append_metrics(jrow, snap, "async.");
    if (!metrics_out.empty()) {
      std::ofstream os(metrics_out);
      if (os.good()) {
        snap.write_json(os);
        std::cout << "(metrics written to " << metrics_out << ")\n";
      } else {
        std::cerr << "cannot write " << metrics_out << "\n";
      }
    }
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      if (os.good()) {
        trace.write_chrome_json(os, "scalability");
        std::cout << "(trace written to " << trace_out << ", "
                  << trace.size() << " events";
        if (trace.dropped() > 0)
          std::cout << ", " << trace.dropped() << " dropped";
        std::cout << ")\n";
      } else {
        std::cerr << "cannot write " << trace_out << "\n";
      }
    }
  }

  const std::string json_out = opts.get_string("json_out");
  if (!json_out.empty() && json.write_file(json_out))
    std::cout << "(json written to " << json_out << ")\n";
  return 0;
}
