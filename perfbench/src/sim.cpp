// The simulation workloads: paper and serving.
//
// End-to-end run (--trace 0): every engine runs detached from all
// instrumentation.  Serial System::run and deterministic run_async
// alternate over a seeded set of realizations until the window closes;
// each realization's first pass also records its end state, and a
// LatencyProbe over DlbAdapter replays the realization's demand (open
// loop: arrivals follow the demand whatever the backlog) for the
// queueing-latency tail.
//
// Traced run (--trace 1): the step loop of System::run is driven from
// outside through the public API (ActiveSchedule::advance, then two
// Rng::bernoulli draws per active processor, then System::generate and
// System::consume), which is bit-identical to System::run.  Each call
// becomes a span kept in memory; spans are folded into per-layer
// distributions and written out when the run ends.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>

#include "baselines/adapter.hpp"
#include "baselines/latency_probe.hpp"
#include "core/system.hpp"
#include "dlb_bench.hpp"
#include "metrics/imbalance.hpp"
#include "obs/alloc.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "theory/bounds.hpp"
#include "workload/schedule.hpp"
#include "workload/serving.hpp"

namespace perfbench {
namespace {

using namespace dlb;

// ---- Workload definitions -------------------------------------------

struct Spec {
  std::string name;
  std::uint32_t n = 0;
  std::uint32_t horizon = 0;
  // Realizations per run: end-state quality and latency are averaged
  // over them, so their spread across seeds stays small.
  std::uint32_t realizations = 0;
  BalancerConfig cfg;
  // True when realization r's demand pattern is scenario r of a fixed
  // set, whatever the seed; the seed still drives the balancer and the
  // demand draws.  Used where the step cost depends more on where the
  // pattern puts its hot spots than on the code (serving: Zipf head and
  // flash crowd), so that timings move with the code, not the seed.
  bool fixed_scenarios = false;
  std::function<Workload(std::uint64_t seed)> build;
};

bool make_spec(const Options& o, Spec& s) {
  s.name = o.workload;
  if (o.workload == "paper") {
    // §7 at the paper's n = 64: every processor active, f = 1.1 fires
    // often, so the balance deal in the dense class regime dominates.
    s.n = o.tiny ? 16 : 64;
    s.horizon = o.tiny ? 100 : 500;
    s.realizations = o.tiny ? 2 : 96;
    s.cfg.f = 1.1;
    s.cfg.delta = 4;
    s.cfg.borrow_cap = 4;
    const std::uint32_t n = s.n;
    const std::uint32_t h = s.horizon;
    s.build = [n, h](std::uint64_t seed) {
      Rng rng(seed);
      return Workload::paper_benchmark(n, h, WorkloadParams{}, rng);
    };
    return true;
  }
  if (o.workload == "serving") {
    // Zipf head overloads a few processors: class lookup and the borrow
    // protocol dominate the step (borrows run on about half of all
    // consumes).  n = 1024 keeps a pass cache-resident: at n = 16384 the
    // step time followed the host's memory traffic, with 2x swings within
    // minutes, more than it followed the code.
    s.n = o.tiny ? 256 : 1024;
    s.horizon = o.tiny ? 100 : 200;
    s.realizations = o.tiny ? 2 : 8;
    s.cfg.f = 1.1;
    s.cfg.delta = 2;
    s.cfg.borrow_cap = 4;
    s.fixed_scenarios = true;
    ServingParams params;
    params.alpha = 1.1;
    params.sessions = o.tiny ? 20000 : 2000000;
    params.flash_crowds = 1;
    const std::uint32_t n = s.n;
    const std::uint32_t h = s.horizon;
    s.build = [n, h, params](std::uint64_t seed) {
      return ServingWorkload::build(n, h, params, seed);
    };
    return true;
  }
  return false;
}

struct Seeds {
  std::uint64_t workload = 0;
  std::uint64_t system = 0;
  std::uint64_t demand = 0;
};

std::vector<Seeds> derive_seeds(const Spec& spec, std::uint64_t seed) {
  Rng master(seed);
  std::vector<Seeds> out(spec.realizations);
  for (std::uint32_t r = 0; r < spec.realizations; ++r) {
    Seeds& s = out[r];
    s.workload = master.next();
    if (spec.fixed_scenarios) s.workload = r + 1;
    s.system = master.next();
    s.demand = master.next();
  }
  return out;
}

// ---- Set-up ---------------------------------------------------------

// One set-up sample is a sweep that sets up every realization (the
// sample is the per-realization mean), so a sample is long enough to
// time even where one set-up takes microseconds, and it does not depend
// on which realization happens to be cheap.  Sweeps repeat until
// kMinSetups samples exist and kSetupBudgetS has passed.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupBudgetS = 1.0;

struct Prepared {
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> compile_ms;

  const Workload& at(std::uint32_t r) const { return *workloads[r]; }
};

Prepared prepare(const Spec& spec, const std::vector<Seeds>& seeds) {
  Prepared prep;
  const double R = spec.realizations;
  const auto begin = Clock::now();
  for (std::size_t sweep = 0;; ++sweep) {
    double setup = 0.0;
    double build = 0.0;
    double compile = 0.0;
    for (std::uint32_t r = 0; r < spec.realizations; ++r) {
      const auto t0 = Clock::now();
      auto wl = std::make_unique<Workload>(spec.build(seeds[r].workload));
      const auto t1 = Clock::now();
      { const ActiveSchedule schedule(*wl); }
      const auto t2 = Clock::now();
      { const System sys(spec.n, spec.cfg, seeds[r].system); }
      const auto t3 = Clock::now();
      // The schedule and System are destroyed inside their own scopes;
      // their teardown is part of what a set-up costs a user who builds
      // one per run.
      setup += seconds_between(t0, t3);
      build += seconds_between(t0, t1);
      compile += seconds_between(t1, t2);
      if (sweep == 0) prep.workloads.push_back(std::move(wl));
    }
    prep.setup_s.push_back(setup / R);
    prep.build_ms.push_back(build * 1e3 / R);
    prep.compile_ms.push_back(compile * 1e3 / R);
    if (sweep + 1 >= kMinSetups &&
        (seconds_between(begin, Clock::now()) >= kSetupBudgetS ||
         sweep + 1 >= kMaxSetups))
      break;
  }
  return prep;
}

// ---- Checks and end states -------------------------------------------

void check_system(const System& sys, const std::string& what,
                  Report& report) {
  try {
    sys.check_invariants();
  } catch (const std::exception& e) {
    report.fail(what + ": invariants: " + e.what());
    return;
  }
  const auto expected = static_cast<std::int64_t>(sys.total_generated()) -
                        static_cast<std::int64_t>(sys.total_consumed());
  if (sys.total_load() != expected)
    report.fail(what + ": total load != generated - consumed");
}

struct EndState {
  double cov = 0.0;
  double max_avg = 0.0;
  double avg_load = 0.0;
  double balance_ops = 0.0;
  double messages = 0.0;
};

EndState end_state(const System& sys) {
  const ImbalanceReport imb = measure_imbalance(sys.loads());
  EndState s;
  s.cov = imb.cov;
  s.max_avg = imb.max_over_avg;
  s.avg_load = imb.avg_load;
  s.balance_ops = static_cast<double>(sys.balance_operations());
  s.messages = static_cast<double>(sys.costs().totals().messages);
  return s;
}

double mean_of(const std::vector<EndState>& v, double EndState::*field) {
  double sum = 0.0;
  for (const EndState& s : v) sum += s.*field;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

AsyncOptions pinned_async() {
  AsyncOptions a;
  a.epoch_steps = kAsyncEpochSteps;
  return a;
}

// ---- Latency replay (baselines layer) --------------------------------

struct ReplayResult {
  double wall_s = 0.0;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
};

// Streams the realization's demand (an independent demand stream, drawn
// in the same ascending processor order Trace::record uses) into a
// LatencyProbe over DlbAdapter.  Streaming instead of materializing a
// Trace keeps memory O(active).
ReplayResult replay_latency(const Spec& spec, const Workload& wl,
                            const Seeds& seeds, obs::Histogram& merged,
                            Report& report) {
  DlbAdapter adapter(spec.n, spec.cfg, seeds.system);
  LatencyProbe probe(adapter);
  ActiveSchedule schedule(wl);
  Rng demand(seeds.demand);
  const auto t0 = Clock::now();
  probe.begin_run();
  for (std::uint32_t t = 0; t < wl.horizon(); ++t) {
    for (const ActiveSchedule::Entry& e : schedule.advance(t)) {
      const bool gen = demand.bernoulli(e.phase->generate_prob);
      const bool con = demand.bernoulli(e.phase->consume_prob);
      if (gen) probe.generate(e.proc);
      if (con) probe.consume(e.proc);
    }
    probe.end_step(t);
  }
  ReplayResult res;
  res.wall_s = seconds_between(t0, Clock::now());
  res.arrived = probe.latency().arrived();
  res.served = probe.latency().served();
  merged.merge(probe.latency().histogram());
  check_system(adapter.system(), "latency replay", report);
  return res;
}

// VmHWM, not getrusage: ru_maxrss survives execve on Linux, so it would
// report the launching interpreter's peak whenever that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

// ---- End-to-end run ---------------------------------------------------

constexpr std::size_t kMinPasses = 3;

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

double mean_of_medians(const std::vector<std::vector<double>>& per_r) {
  double sum = 0.0;
  for (const std::vector<double>& v : per_r) sum += median(v);
  return per_r.empty() ? 0.0 : sum / static_cast<double>(per_r.size());
}

std::vector<double> flatten(const std::vector<std::vector<double>>& per_r) {
  std::vector<double> all;
  for (const std::vector<double>& v : per_r)
    all.insert(all.end(), v.begin(), v.end());
  return all;
}

void run_end_to_end(const Spec& spec, const Options& opts,
                    const std::vector<Seeds>& seeds, const Prepared& prep,
                    Report& report) {
  const std::uint32_t R = spec.realizations;
  const double steps = static_cast<double>(spec.horizon);
  // Per realization: every pass's µs/step.  A timing metric is the mean
  // over realizations of each realization's median, so it rests on
  // every realization equally and a slow pass moves it little.
  std::vector<std::vector<double>> serial_us(R);
  std::vector<std::vector<double>> async_us(R);
  std::vector<EndState> serial_end(R);
  std::vector<EndState> async_end(R);
  obs::Histogram latency;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;

  const Clock::time_point deadline = deadline_after(opts.seconds);
  for (std::size_t i = 0;; ++i) {
    const auto r = static_cast<std::uint32_t>(i % R);
    const bool first = i < R;
    const Workload& wl = prep.at(r);
    {
      System sys(spec.n, spec.cfg, seeds[r].system);
      const auto t0 = Clock::now();
      sys.run(wl);
      serial_us[r].push_back(seconds_between(t0, Clock::now()) * 1e6 /
                             steps);
      check_system(sys, "serial run", report);
      if (first) serial_end[r] = end_state(sys);
    }
    {
      System sys(spec.n, spec.cfg, seeds[r].system);
      const auto t0 = Clock::now();
      sys.run_async(wl, kAsyncShards, pinned_async());
      async_us[r].push_back(seconds_between(t0, Clock::now()) * 1e6 /
                            steps);
      check_system(sys, "async run", report);
      if (first) async_end[r] = end_state(sys);
    }
    report.count_attempt(2);
    if (first) {
      const ReplayResult rr =
          replay_latency(spec, wl, seeds[r], latency, report);
      arrived += rr.arrived;
      served += rr.served;
      report.count_attempt();
    }
    if (i + 1 >= std::max<std::size_t>(R, kMinPasses) &&
        Clock::now() >= deadline)
      break;
  }

  const double max_avg = mean_of(serial_end, &EndState::max_avg);
  if (spec.name == "paper") {
    // Theorem 4: E(l_i) <= F·(E(l_j) + C) for all i, j, hence
    // max_i E(l_i) / avg <= F·(1 + C/avg).
    const double factor = theorem4_factor(spec.cfg.delta, spec.cfg.f);
    const double avg = mean_of(serial_end, &EndState::avg_load);
    const double bound = factor * (1.0 + spec.cfg.borrow_cap / avg);
    std::cout << "check theorem4: averaged max_avg " << format_number(max_avg)
              << " <= bound " << format_number(bound) << "\n";
    if (!(max_avg <= bound))
      report.fail("paper: averaged max/avg exceeds the Theorem 4 bound");
  }

  report.add_timing("setup_s", prep.setup_s, "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add_timing("serial_step_us", mean_of_medians(serial_us),
                     flatten(serial_us), "us");
  report.add_timing("async_step_us", mean_of_medians(async_us),
                    flatten(async_us), "us");
  report.add("final_cov", mean_of(serial_end, &EndState::cov), "ratio");
  report.add("max_avg", max_avg, "ratio");
  report.add("balance_ops_per_step",
             mean_of(serial_end, &EndState::balance_ops) / steps, "1/step");
  report.add("msgs_per_step",
             mean_of(serial_end, &EndState::messages) / steps, "1/step");
  report.add("async_final_cov", mean_of(async_end, &EndState::cov), "ratio");
  report.add("async_balance_ops_per_step",
             mean_of(async_end, &EndState::balance_ops) / steps, "1/step");
  report.add("lat_p50_steps", latency.percentile(0.5), "steps");
  report.add("lat_p999_steps", latency.percentile(0.999), "steps");
  report.add("served_frac",
             arrived == 0 ? 0.0
                          : static_cast<double>(served) /
                                static_cast<double>(arrived),
             "ratio");
}

// ---- Traced run -------------------------------------------------------

enum Kind : std::uint16_t {
  kStep,
  kCompile,      // workload: ActiveSchedule construction
  kAdvance,      // workload: ActiveSchedule::advance
  kSample,       // support: the step's Bernoulli draws
  kGenPlain,     // core: generate that ran no balance
  kGenBalance,   // core: generate during which a balance ran
  kConsPlain,    // core: consume with no balance, borrow or settle
  kConsBorrow,   // core: consume that borrowed (borrowed_total grew)
  kConsSettle,   // core: consume that settled debts
  kConsBalance,  // core: consume during which a balance ran
  kKinds
};

constexpr const char* kKindNames[kKinds] = {
    "step",         "schedule_compile", "schedule_advance", "sample",
    "generate",     "generate_balance", "consume",          "consume_borrow",
    "consume_settle", "consume_balance"};

struct Span {
  std::uint64_t start_ns;  // since the pass began
  std::uint32_t dur_ns;
  std::uint16_t kind;
  std::uint16_t reserved;
};
static_assert(sizeof(Span) == 16);

// Per-layer tallies accumulated over the traced passes.
struct LayerTally {
  obs::Histogram hist[kKinds];
  std::uint64_t total_ns[kKinds] = {};
  std::uint64_t active_entries = 0;
  std::uint64_t steps = 0;
  std::uint64_t consumes = 0;
  std::uint64_t borrows = 0;
  std::uint64_t settlements = 0;
  std::uint64_t balance_calls = 0;
  std::uint64_t useful_balance_calls = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_steps = 0;
  double wall_ns = 0.0;
};

struct TracedPass {
  double wall_s = 0.0;
  std::vector<std::int64_t> loads;
  std::uint64_t balance_ops = 0;
};

std::size_t span_capacity(const Workload& wl) {
  ActiveSchedule dry(wl);
  std::size_t active = 0;
  for (std::uint32_t t = 0; t < wl.horizon(); ++t)
    active += dry.advance(t).size();
  return 1 + 3 * static_cast<std::size_t>(wl.horizon()) + 2 * active;
}

// One traced pass of System::run's step loop.  Timestamps are chained
// within a step, so the step's time is partitioned among its spans; a
// call's span also carries its own classification reads.
TracedPass traced_drive(System& sys, obs::MetricsRegistry& registry,
                        const Workload& wl, std::vector<Span>& spans,
                        LayerTally& tally) {
  obs::Counter& settlements = registry.counter("system.settlements");
  obs::Counter& borrow_total = registry.counter("system.borrow.total");
  std::vector<std::pair<std::uint32_t, WorkEvent>> events;
  events.reserve(sys.processors());
  spans.clear();
  const std::uint64_t settle_base = settlements.value();
  const std::uint64_t borrow_base = borrow_total.value();
  const std::uint32_t horizon = wl.horizon();
  Rng& rng = sys.rng();

  const auto origin = Clock::now();
  const auto push = [&](Kind kind, Clock::time_point a, Clock::time_point b) {
    const std::uint64_t d = ns_between(a, b);
    spans.push_back(Span{ns_between(origin, a),
                         static_cast<std::uint32_t>(std::min<std::uint64_t>(
                             d, 0xffffffffu)),
                         kind, 0});
  };

  const auto c0 = Clock::now();
  ActiveSchedule schedule(wl);
  push(kCompile, c0, Clock::now());

  obs::AllocPhase alloc_phase;
  alloc_phase.rebase();
  for (std::uint32_t t = 0; t < horizon; ++t) {
    const std::size_t step_index = spans.size();
    spans.push_back(Span{});
    const auto ts = Clock::now();
    const std::vector<ActiveSchedule::Entry>& entries = schedule.advance(t);
    const auto ta = Clock::now();
    push(kAdvance, ts, ta);
    events.clear();
    for (const ActiveSchedule::Entry& e : entries) {
      WorkEvent ev;
      ev.generate = rng.bernoulli(e.phase->generate_prob);
      ev.consume = rng.bernoulli(e.phase->consume_prob);
      if (ev.generate || ev.consume) events.emplace_back(e.proc, ev);
    }
    auto prev = Clock::now();
    push(kSample, ta, prev);
    tally.active_entries += entries.size();
    for (const auto& [p, ev] : events) {
      if (ev.generate) {
        const std::uint64_t ops0 = sys.balance_operations();
        const std::uint64_t moved0 = sys.costs().totals().packets_moved;
        sys.generate(p);
        Kind kind = kGenPlain;
        if (sys.balance_operations() != ops0) {
          kind = kGenBalance;
          ++tally.balance_calls;
          if (sys.costs().totals().packets_moved != moved0)
            ++tally.useful_balance_calls;
        }
        const auto now = Clock::now();
        push(kind, prev, now);
        prev = now;
      }
      if (ev.consume) {
        const std::uint64_t ops0 = sys.balance_operations();
        const std::uint64_t moved0 = sys.costs().totals().packets_moved;
        const std::uint64_t settle0 = settlements.value();
        const std::int64_t debt0 = sys.processor(p).ledger.borrowed_total();
        sys.consume(p);
        Kind kind = kConsPlain;
        if (settlements.value() != settle0) {
          kind = kConsSettle;
        } else if (sys.balance_operations() != ops0) {
          kind = kConsBalance;
          ++tally.balance_calls;
          if (sys.costs().totals().packets_moved != moved0)
            ++tally.useful_balance_calls;
        } else if (sys.processor(p).ledger.borrowed_total() > debt0) {
          kind = kConsBorrow;
        }
        ++tally.consumes;
        const auto now = Clock::now();
        push(kind, prev, now);
        prev = now;
      }
    }
    spans[step_index] =
        Span{ns_between(origin, ts),
             static_cast<std::uint32_t>(
                 std::min<std::uint64_t>(ns_between(ts, prev), 0xffffffffu)),
             kStep, 0};
    // Steady state is the second half of the horizon.
    const obs::AllocCounts allocs = alloc_phase.take();
    if (t >= horizon / 2) {
      tally.steady_allocs += allocs.count;
      ++tally.steady_steps;
    }
  }
  const auto end = Clock::now();

  for (const Span& s : spans) {
    tally.hist[s.kind].record(s.dur_ns);
    tally.total_ns[s.kind] += s.dur_ns;
  }
  tally.steps += horizon;
  tally.settlements += settlements.value() - settle_base;
  tally.borrows += borrow_total.value() - borrow_base;
  tally.wall_ns += static_cast<double>(ns_between(origin, end));

  TracedPass pass;
  pass.wall_s = seconds_between(origin, end);
  pass.loads = sys.loads();
  pass.balance_ops = sys.balance_operations();
  return pass;
}

void write_spans(const Options& opts, const std::vector<Span>& spans) {
  if (opts.spans_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(opts.spans_dir, ec);
  const std::string path = opts.spans_dir + "/" + opts.workload + ".spans";
  std::ofstream out(path, std::ios::binary);
  if (!out) return;
  // Header: format line, then the kind names in index order; records are
  // 16-byte {u64 start_ns, u32 dur_ns, u16 kind, u16 reserved}, native
  // byte order.  Step spans precede their children.
  out << "perfbench-spans 1 " << spans.size() << "\n";
  for (const char* name : kKindNames) out << name << "\n";
  out.write(reinterpret_cast<const char*>(spans.data()),
            static_cast<std::streamsize>(spans.size() * sizeof(Span)));
}

void run_traced(const Spec& spec, const Options& opts,
                const std::vector<Seeds>& seeds, const Prepared& prep,
                Report& report) {
  const std::uint32_t R = spec.realizations;
  std::vector<Span> spans;
  std::size_t capacity = 0;
  for (std::uint32_t r = 0; r < R; ++r)
    capacity = std::max(capacity, span_capacity(prep.at(r)));
  spans.reserve(capacity);

  LayerTally tally;
  std::vector<double> overhead;
  double active_classes = 0.0;
  double ledger_bytes = 0.0;
  double msgs_per_balance = 0.0;

  const Clock::time_point deadline = deadline_after(opts.seconds);
  for (std::size_t i = 0;; ++i) {
    const auto r = static_cast<std::uint32_t>(i % R);
    const Workload& wl = prep.at(r);
    System plain(spec.n, spec.cfg, seeds[r].system);
    const auto t0 = Clock::now();
    plain.run(wl);
    const double plain_s = seconds_between(t0, Clock::now());

    obs::MetricsRegistry registry;
    System traced(spec.n, spec.cfg, seeds[r].system);
    traced.attach_metrics(&registry);
    const TracedPass pass = traced_drive(traced, registry, wl, spans, tally);
    report.count_attempt(2);
    overhead.push_back(pass.wall_s / plain_s);
    check_system(traced, "traced run", report);
    if (pass.loads != plain.loads() ||
        pass.balance_ops != plain.balance_operations())
      report.fail("traced step loop diverged from System::run (realization " +
                  std::to_string(r) + ")");
    if (i == 0) {
      std::uint64_t classes = 0;
      std::uint64_t bytes = 0;
      for (std::uint32_t p = 0; p < spec.n; ++p) {
        const Ledger& ledger = traced.processor(p).ledger;
        classes += ledger.active_classes().size();
        bytes += ledger.memory_bytes();
      }
      active_classes = static_cast<double>(classes) / spec.n;
      ledger_bytes = static_cast<double>(bytes) / spec.n;
      msgs_per_balance =
          traced.balance_operations() == 0
              ? 0.0
              : static_cast<double>(traced.costs().totals().messages) /
                    static_cast<double>(traced.balance_operations());
    }
    if (Clock::now() >= deadline) break;
  }
  write_spans(opts, spans);

  // Async-det with its existing async.* instruments attached.
  obs::MetricsRegistry async_registry;
  {
    System sys(spec.n, spec.cfg, seeds[0].system);
    sys.attach_metrics(&async_registry);
    sys.run_async(prep.at(0), kAsyncShards, pinned_async());
    check_system(sys, "instrumented async run", report);
    report.count_attempt();
  }
  const obs::MetricsSnapshot snap = async_registry.snapshot();
  const auto hist_pct = [&](const char* name, double q) {
    const obs::MetricValue* v = snap.find(name);
    if (v == nullptr) return 0.0;
    return q == 0.5 ? v->p50 : v->p99;
  };
  const auto counter = [&](const char* name) {
    const obs::MetricValue* v = snap.find(name);
    return v == nullptr ? 0.0 : static_cast<double>(v->value);
  };

  obs::Histogram scratch;
  const ReplayResult replay =
      replay_latency(spec, prep.at(0), seeds[0], scratch, report);
  report.count_attempt();

  const auto p50 = [&](Kind k) { return tally.hist[k].percentile(0.5); };
  const auto p99 = [&](Kind k) { return tally.hist[k].percentile(0.99); };
  const double steps = static_cast<double>(tally.steps);
  const double consumes = static_cast<double>(tally.consumes);
  std::uint64_t layer_ns = tally.total_ns[kCompile] +
                           tally.total_ns[kAdvance] + tally.total_ns[kSample];
  for (int k = kGenPlain; k < kKinds; ++k) layer_ns += tally.total_ns[k];

  report.add_timing("workload.build_ms", prep.build_ms, "ms");
  report.add_timing("workload.schedule_compile_ms", prep.compile_ms, "ms");
  report.add("workload.schedule_advance_ns.p50", p50(kAdvance), "ns");
  report.add("workload.schedule_advance_ns.p99", p99(kAdvance), "ns");
  report.add("workload.active_per_step",
             static_cast<double>(tally.active_entries) / steps, "count");
  report.add("support.sample_ns",
             tally.active_entries == 0
                 ? 0.0
                 : static_cast<double>(tally.total_ns[kSample]) /
                       static_cast<double>(tally.active_entries),
             "ns");
  report.add("core.generate_ns.p50", p50(kGenPlain), "ns");
  report.add("core.generate_ns.p99", p99(kGenPlain), "ns");
  report.add("core.consume_ns.p50", p50(kConsPlain), "ns");
  report.add("core.consume_ns.p99", p99(kConsPlain), "ns");
  report.add("core.borrow_consume_ns.p50", p50(kConsBorrow), "ns");
  report.add("core.borrow_consume_ns.p99", p99(kConsBorrow), "ns");
  report.add("core.settle_consume_ns.p50", p50(kConsSettle), "ns");
  report.add("core.settle_consume_ns.p99", p99(kConsSettle), "ns");
  report.add("core.borrows_per_consume",
             consumes == 0 ? 0.0 : static_cast<double>(tally.borrows) / consumes,
             "ratio");
  report.add("core.settles_per_consume",
             consumes == 0 ? 0.0
                           : static_cast<double>(tally.settlements) / consumes,
             "ratio");
  obs::Histogram balance_calls;
  balance_calls.merge(tally.hist[kGenBalance]);
  balance_calls.merge(tally.hist[kConsBalance]);
  report.add("core.balance_call_ns.p50", balance_calls.percentile(0.5), "ns");
  report.add("core.balance_call_ns.p99", balance_calls.percentile(0.99), "ns");
  report.add("core.useful_balance_ratio",
             tally.balance_calls == 0
                 ? 0.0
                 : static_cast<double>(tally.useful_balance_calls) /
                       static_cast<double>(tally.balance_calls),
             "ratio");
  report.add("core.msgs_per_balance", msgs_per_balance, "count");
  report.add("core.active_classes_per_ledger", active_classes, "count");
  report.add("core.ledger_bytes_per_proc", ledger_bytes, "B");
  report.add("core.step_ns.p50", p50(kStep), "ns");
  report.add("core.step_ns.p99", p99(kStep), "ns");
  report.add("core.layer_sum_ratio",
             static_cast<double>(layer_ns) / tally.wall_ns, "ratio");
  report.add_timing("core.trace_overhead", overhead, "ratio");
  report.add("async.drain_ns.p50", hist_pct("async.drain_ns", 0.5), "ns");
  report.add("async.drain_ns.p99", hist_pct("async.drain_ns", 0.99), "ns");
  report.add("async.quiesce_ns.p50", hist_pct("async.quiesce_ns", 0.5), "ns");
  report.add("async.quiesce_ns.p99", hist_pct("async.quiesce_ns", 0.99),
             "ns");
  const double epochs = counter("async.epochs");
  report.add("async.epochs", epochs, "count");
  report.add("async.msgs_per_step",
             counter("async.msgs") / static_cast<double>(spec.horizon),
             "1/step");
  report.add("async.circles_per_epoch",
             epochs == 0 ? 0.0 : counter("async.circles") / epochs, "count");
  report.add("baselines.replay_step_us",
             replay.wall_s * 1e6 / static_cast<double>(spec.horizon), "us");
  report.add("obs.allocs_per_step",
             tally.steady_steps == 0
                 ? 0.0
                 : static_cast<double>(tally.steady_allocs) /
                       static_cast<double>(tally.steady_steps),
             "count");
}

}  // namespace

bool run_simulation(const Options& opts, Report& report, Provenance& prov) {
  Spec spec;
  if (!make_spec(opts, spec)) return false;
  prov.async_shards = kAsyncShards;
  prov.async_epoch_steps = kAsyncEpochSteps;
  const std::vector<Seeds> seeds = derive_seeds(spec, opts.seed);
  const Prepared prep = prepare(spec, seeds);
  if (opts.trace) {
    run_traced(spec, opts, seeds, prep, report);
    prov.socket_ranks = run_socket_legs(opts, report);
  } else {
    run_end_to_end(spec, opts, seeds, prep, report);
  }
  return true;
}

}  // namespace perfbench
