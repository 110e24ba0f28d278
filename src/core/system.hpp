// The n-processor-generator-consumer system (§4 + appendix).
//
// A sequential, deterministic simulator of n processors running the load
// balancing algorithm.  Time advances in global steps; in each step every
// processor with a workload phase draws a WorkEvent (or replays one from
// a trace), applies it, and checks its factor-f trigger.  Balancing
// operations execute atomically within a step, matching the paper's model
// that an operation completes in constant time (§2, [D10] in DESIGN.md).
//
// The step engine is *event-batched*: run(Workload) precompiles the
// static phase schedule into per-step active-processor lists
// (workload/schedule.hpp) and iterates only those — a processor outside
// any phase draws no RNG values, so skipping it is bit-identical to the
// plain O(n) loop (run_reference keeps that loop as the test oracle).
// A step costs O(active + balancing), independent of n.
//
// All randomness flows through one seeded generator, so a (seed, workload)
// pair fully determines a run — the property the 100-run experiment
// harnesses and the record/replay tests rely on.  run_async shards
// the step loop across threads with per-shard split RNG streams; its
// deterministic runs are determined by (seed, workload, shards,
// epoch_steps) instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/ledger.hpp"
#include "metrics/recorder.hpp"
#include "net/cost_model.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace dlb {

class AsyncEngine;

/// Tuning knobs for the barrier-free asynchronous driver (run_async).
struct AsyncOptions {
  /// Steps each shard advances locally before the quiescence fence (the
  /// deterministic mode's epoch length).  Larger epochs amortize the
  /// token circulation over more steps; 1 reproduces a per-step fence.
  std::uint32_t epoch_steps = 16;
  /// Trades bit-reproducibility for throughput: shards free-run the
  /// whole horizon and execute balancing operations concurrently under
  /// per-processor locks, with a single quiescence detection at the end.
  /// Off (default): epoch-fenced execution, deterministic per
  /// (seed, shards, epoch_steps).
  bool relaxed_order = false;
};

/// Relaxed atomic counter that stays copyable, so System keeps its move
/// semantics (checkpoint restore returns a System by value).  Copies are
/// not atomic — only single-threaded contexts copy or move a System.
class AtomicCounter {
 public:
  AtomicCounter(std::uint64_t value = 0) noexcept : value_(value) {}
  AtomicCounter(const AtomicCounter& other) noexcept : value_(other.get()) {}
  AtomicCounter& operator=(const AtomicCounter& other) noexcept {
    value_.store(other.get(), std::memory_order_relaxed);
    return *this;
  }

  std::uint64_t get() const {
    return value_.load(std::memory_order_relaxed);
  }
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_;
};

/// State of one simulated processor.
struct ProcessorState {
  ProcessorState(std::uint32_t classes, std::uint32_t self)
      : ledger(classes, self) {}

  Ledger ledger;
  /// l_{i,old}: the self-generated load d[i] at the last balancing
  /// operation this processor was involved in.
  std::int64_t l_old = 0;
  /// Local clock: number of balancing operations this processor was
  /// involved in (the t' of Theorem 4).
  std::uint64_t local_time = 0;
};

class System {
 public:
  /// `topology` is optional and only used for hop-cost accounting and,
  /// when `local_partners` is set, for neighborhood-restricted partner
  /// choice; it must outlive the System.
  System(std::uint32_t processors, BalancerConfig config, std::uint64_t seed,
         const Topology* topology = nullptr);

  std::uint32_t processors() const {
    return static_cast<std::uint32_t>(procs_.size());
  }
  const BalancerConfig& config() const { return config_; }

  /// Per-step load and migration observer for the figures; may be
  /// null.  Not owned.
  void attach_recorder(Recorder* recorder) { recorder_ = recorder; }

  /// Operational metrics (src/obs): the event counters (balance ops,
  /// packets moved, Table 1's borrow events, settlements) — the one
  /// place events are counted — plus the per-step active-processor
  /// gauge, balance-duration and run_async drain/quiescence histograms.
  /// May be null (detached); not owned.  Hot paths pay only a null check
  /// while detached.
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Structured trace sink (src/obs): step, balance-op and run_async
  /// shard-phase spans.  May be null; not owned.  Recording also honours
  /// the buffer's own enabled() gate.
  void attach_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  /// Locality ablation: draw the delta partners from the initiator's
  /// topology neighborhood (ball of radius `radius`) instead of the whole
  /// network.  Requires a topology with enough reachable processors.
  void restrict_partners_to_neighborhood(unsigned radius);

  // ---- Driving the simulation -----------------------------------------

  /// Runs the workload over its full horizon, sampling events with this
  /// system's generator.  Event-batched: only processors inside a phase
  /// are touched each step; bit-identical to run_reference.
  void run(const Workload& workload);

  /// The plain O(n)-per-step loop (sample every processor, then apply).
  /// Kept as the reference implementation the equivalence tests compare
  /// the batched path against; produces the same results as run().
  void run_reference(const Workload& workload);

  /// Barrier-free sharded driver: shards own processors round-robin
  /// (owner = p mod shards), advance their own strided schedule in
  /// epochs, and route cross-shard work (balance triggers, marker
  /// cancels) as messages through per-shard-pair SPSC rings; a
  /// Dijkstra–Safra token decides epoch completion instead of a barrier
  /// (core/quiescence.hpp).  Deterministic per (seed, workload, shards,
  /// epoch_steps) by default; options.relaxed_order trades that for
  /// concurrent balancing under per-processor locks.  A recorder must
  /// not be attached (no serial point to observe per-step loads from);
  /// with post-step checks enabled, invariants are verified per epoch
  /// (deterministic mode) or once at the end (relaxed mode).
  void run_async(const Workload& workload, std::uint32_t shards,
                 AsyncOptions options = {});

  /// Replays a pre-recorded trace (identical demand across algorithms).
  void run(const Trace& trace);

  /// Applies one global step given each processor's event.
  void step(std::uint32_t t, const std::vector<WorkEvent>& events);

  /// Test hook: when enabled, every run() step ends with
  /// check_invariants() (packet conservation after each global step);
  /// run_async checks per epoch or at the end of the run instead.
  void set_post_step_check(bool enabled) { post_step_check_ = enabled; }

  // ---- Direct manipulation (tests, examples, one-processor models) ----

  /// Processor `p` generates one packet (the x = +1 branch).
  void generate(std::uint32_t p);

  /// Processor `p` attempts to consume one packet (the x = -1 branch).
  /// Returns false when no packet could be consumed (l_p == 0 or the
  /// borrow protocol could not free one).
  bool consume(std::uint32_t p);

  /// Unconditionally runs a balancing operation initiated by `p` with
  /// delta random partners (exposed for the §3 one-processor drivers).
  void force_balance(std::uint32_t p);

  // ---- Inspection ------------------------------------------------------

  const ProcessorState& processor(std::uint32_t p) const;
  std::vector<std::int64_t> loads() const;
  /// Fills `out` with the per-processor real loads, reusing its capacity
  /// (the allocation-free variant of loads() for polling callers).
  void loads_into(std::vector<std::int64_t>& out) const;
  std::int64_t load(std::uint32_t p) const;
  std::int64_t total_load() const;
  std::uint64_t total_generated() const { return generated_.get(); }
  std::uint64_t total_consumed() const { return consumed_.get(); }
  std::uint64_t balance_operations() const { return balance_ops_.get(); }
  const CostLedger& costs() const { return costs_; }
  Rng& rng() { return rng_; }

  /// Verifies every ledger invariant plus global packet conservation
  /// (sum of loads == generated − consumed).  Throws contract_error.
  void check_invariants() const;

  /// Neighborhood restriction radius, if any (checkpointing support).
  std::optional<unsigned> partner_radius() const { return partner_radius_; }

 private:
  friend void save_checkpoint(const System& system, std::ostream& os);
  friend System load_checkpoint(std::istream& is, const Topology* topology);
  // The asynchronous driver (core/system_async.cpp) reaches the shard-
  // safe internals directly: the local event halves, the decomposed
  // balancing core, and the counters (all atomic or per-thread).
  friend class AsyncEngine;

  // Deferred event counters.  The async shards run generate/consume
  // concurrently, so the shared totals cannot be bumped from inside
  // those paths; counts accumulate here and are committed at a safe
  // point.  The serial drivers (run, step) keep one per step and commit
  // it once, before the post-step check and the recorder's loads: a
  // commit is a locked read-modify-write per nonzero field, too dear to
  // pay per event.  The public generate(p) and consume(p) commit per
  // call.
  struct StepCounters {
    std::uint64_t generated = 0;
    std::uint64_t consumed = 0;
    std::uint64_t total_borrows = 0;  // system.borrow.total
  };
  // Adds the counts to the run totals and the registry in bulk.
  void commit(const StepCounters& counters);

  // Outcome of the shard-local part of a consume.
  enum class ConsumeLocal {
    Failed,          // nothing to consume / borrowing impossible
    ConsumedOwn,     // own-class packet consumed: trigger check is due
    ConsumedBorrow,  // consumed on credit (no own-class change)
    NeedsSettle,     // borrow capacity exhausted: settle debts, retry
  };

  // Internal paths take the Rng to draw from explicitly: the sequential
  // drivers pass rng_, the async shards their per-shard streams.

  // Ledger mutation + counter halves of generate/consume: touch only
  // processor p's own ledger (safe to run in parallel across disjoint
  // processors) and defer the trigger check to the caller.
  void generate_packet(std::uint32_t p, Rng& rng, StepCounters& counters);
  ConsumeLocal consume_packet(std::uint32_t p, Rng& rng,
                              StepCounters& counters);
  bool try_borrow(std::uint32_t p, Rng& rng, StepCounters& counters);

  // Full sequential semantics (local half + trigger/settlement); the
  // caller commits `counters`.
  void generate(std::uint32_t p, Rng& rng, StepCounters& counters);
  bool consume(std::uint32_t p, Rng& rng, StepCounters& counters);

  // Trigger predicate for p ([D1]): the self-generated load has drifted
  // by the factor f since the last balancing operation.
  bool trigger_fires(std::uint32_t p) const;

  // Trigger check + balancing operation when it fires.
  void maybe_balance(std::uint32_t p, Rng& rng);

  // Zero-alloc opt-in (reserve_classes > 0, DESIGN.md §11): pre-sizes
  // every lazily-grown thread_local on the balancing path — balance
  // scratch and the partner-draw pool — to its analytic bound.  Each
  // driver calls this once per worker thread at startup, so a thread
  // whose first balancing operation lands late in the run does not pay
  // its one-time warmup there.  No-op without the opt-in.
  void warm_thread_scratch();

  // Balancing operation over initiator + delta random partners.
  void balance(std::uint32_t initiator, const std::vector<ProcId>& partners,
               Rng& rng);

  // The reusable core of balance(): one kernel that merges the
  // participants' ledgers into the class union and count matrix, deals
  // it with the snake and rebuilds each ledger in one pass, plus the
  // accounting — WITHOUT the trailing self-marker cancels (the
  // sequential wrapper runs those inline; the async engine routes them
  // to the participants' owner shards as messages).  Costs land in
  // `costs` (the sequential drivers pass costs_, the async shards their
  // private ledgers merged at the end); `cancel_due`, when non-null,
  // collects the participants left holding own-class markers; `tid` is
  // the trace track.  Returns how many participants are left holding
  // own-class markers.  Thread-safe under the async locking protocol:
  // all participant ledgers must be exclusively held by the caller.
  std::size_t balance_deal(std::uint32_t initiator,
                           const std::vector<ProcId>& partners, Rng& rng,
                           CostLedger& costs,
                           std::vector<ProcId>* cancel_due,
                           std::uint32_t tid = 0);

  // Draws the delta partners for `initiator` (global or neighborhood)
  // into `out`, reusing its capacity.  Callers lease `out` from the
  // thread's scratch pool (core/scratch.hpp) — balancing operations nest,
  // so a single scratch vector is not enough.
  void draw_partners(std::uint32_t initiator, Rng& rng,
                     std::vector<ProcId>& out);

  // Settlement when p's borrow capacity is exhausted: pick a marked class
  // j; remote-exchange against j's generator or run the §4 resolution.
  void settle_debts(std::uint32_t p, Rng& rng);

  // Remote exchange [D4]: exchange_packets, then j simulates the
  // corresponding workload decrease with a nested trigger check.
  void remote_exchange(std::uint32_t p, std::uint32_t j, Rng& rng);

  // The body of [D4] both engines share: up to min(d[j][j],
  // borrowed_total(p)) real class-j packets migrate j -> p and are
  // charged to `costs`, then that many of p's markers are cleared, class
  // j's first and then the lowest classes.  Counts the remote borrow and
  // the simulated decrease; the decrease itself (a trigger check on j)
  // is the caller's.  Both ledgers must be held by the caller.
  void exchange_packets(std::uint32_t p, std::uint32_t j, CostLedger& costs);

  // [D5] resolution when class j's generator holds none of its own
  // packets.
  void resolve_empty_generator(std::uint32_t p, std::uint32_t j, Rng& rng);

  // [D6] a participant holding markers of its own class settles them
  // immediately ("simulate a load decrease of b_ii").
  void cancel_self_markers(std::uint32_t p, Rng& rng);

  // Adds one to a cached registry counter (m_.borrow_remote, ...): a
  // no-op while detached, when every handle is null.
  static void count_event(obs::Counter* counter) {
    if (counter != nullptr) counter->add(1);
  }

  // Per-step active-processor accounting (gauge + distribution).
  void note_active(std::size_t active);

  // Recorder loads snapshot, maintained incrementally: every real-load
  // mutation routes through touch_load, so the per-step recorder call is
  // O(1) instead of an O(n) rebuild.
  void touch_load(std::uint32_t p);
  void emit_loads(std::uint32_t t);

  BalancerConfig config_;
  const Topology* topology_;
  Rng rng_;
  std::vector<ProcessorState> procs_;
  Recorder* recorder_ = nullptr;
  // Cached instrument handles, resolved once in attach_metrics so the
  // hot paths never touch the registry map.  Valid iff metrics_ != null.
  struct SystemMetrics {
    obs::Counter* generated = nullptr;
    obs::Counter* consumed = nullptr;
    obs::Counter* balance_ops = nullptr;
    obs::Counter* packets_moved = nullptr;
    // Table 1's four borrow-protocol counts.
    obs::Counter* borrow_total = nullptr;   // packets consumed on credit
    obs::Counter* borrow_remote = nullptr;  // remote exchanges [D4]
    // [D5] entries into the empty-generator resolution, whatever their
    // ending: those that end in a remote exchange also count above.
    obs::Counter* borrow_fail = nullptr;
    obs::Counter* decrease_sim = nullptr;   // simulated load decreases
    obs::Counter* settlements = nullptr;
    obs::Gauge* active_procs = nullptr;
    obs::Histogram* step_active = nullptr;
    obs::Histogram* balance_ns = nullptr;
  };
  obs::MetricsRegistry* metrics_ = nullptr;
  SystemMetrics m_;
  obs::TraceBuffer* trace_ = nullptr;
  CostLedger costs_;
  // Run counters are atomic so the async shards can commit concurrently
  // (relaxed adds; no ordering is derived from them).  Even uncontended,
  // a relaxed fetch_add is a locked read-modify-write on x86, not a
  // plain add, so commit() skips the fields that are zero.
  AtomicCounter generated_;
  AtomicCounter consumed_;
  AtomicCounter balance_ops_;
  std::optional<unsigned> partner_radius_;
  bool post_step_check_ = false;
  // The balancing scratch (merge cursors, (delta+1) x k deal matrices)
  // lives in a thread_local inside balance_deal — run_async executes
  // balancing operations concurrently, one per shard thread.
  // Delta-maintained loads for the recorder path (see touch_load).
  std::vector<std::int64_t> loads_cache_;
  bool loads_cache_valid_ = false;
};

}  // namespace dlb
