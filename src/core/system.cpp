#include "core/system.hpp"

#include <algorithm>

#include "core/scratch.hpp"
#include "core/snake.hpp"
#include "obs/alloc.hpp"
#include "obs/timer.hpp"
#include "support/check.hpp"
#include "workload/schedule.hpp"

namespace dlb {

System::System(std::uint32_t processors, BalancerConfig config,
               std::uint64_t seed, const Topology* topology)
    : config_(config),
      topology_(topology),
      rng_(seed),
      costs_(topology) {
  config_.validate(processors);
  if (topology_ != nullptr) {
    DLB_REQUIRE(topology_->size() == processors,
                "topology size must match the processor count");
  }
  procs_.reserve(processors);
  for (std::uint32_t p = 0; p < processors; ++p)
    procs_.emplace_back(processors, p);
  if (config_.reserve_classes > 0)
    for (ProcessorState& st : procs_)
      st.ledger.reserve_active(config_.reserve_classes);
}

void System::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    m_ = SystemMetrics{};
    return;
  }
  m_.generated = &registry->counter("system.generated");
  m_.consumed = &registry->counter("system.consumed");
  m_.balance_ops = &registry->counter("system.balance_ops");
  m_.packets_moved = &registry->counter("system.packets_moved");
  m_.borrow_total = &registry->counter("system.borrow.total");
  m_.borrow_remote = &registry->counter("system.borrow.remote");
  m_.borrow_fail = &registry->counter("system.borrow.fail");
  m_.decrease_sim = &registry->counter("system.borrow.decrease_sim");
  m_.settlements = &registry->counter("system.settlements");
  m_.active_procs = &registry->gauge("system.active_procs");
  m_.step_active = &registry->histogram("system.step.active");
  m_.balance_ns = &registry->histogram("system.balance_ns");
}

void System::note_active(std::size_t active) {
  if (metrics_ == nullptr) return;
  m_.active_procs->set(static_cast<std::int64_t>(active));
  m_.step_active->record(static_cast<std::uint64_t>(active));
}

void System::restrict_partners_to_neighborhood(unsigned radius) {
  DLB_REQUIRE(topology_ != nullptr,
              "neighborhood partner choice needs a topology");
  DLB_REQUIRE(radius >= 1, "neighborhood radius must be at least 1");
  partner_radius_ = radius;
}

const ProcessorState& System::processor(std::uint32_t p) const {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  return procs_[p];
}

std::vector<std::int64_t> System::loads() const {
  std::vector<std::int64_t> out;
  loads_into(out);
  return out;
}

void System::loads_into(std::vector<std::int64_t>& out) const {
  out.resize(processors());
  for (std::uint32_t p = 0; p < processors(); ++p)
    out[p] = procs_[p].ledger.real_load();
}

std::int64_t System::load(std::uint32_t p) const {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  return procs_[p].ledger.real_load();
}

std::int64_t System::total_load() const {
  std::int64_t total = 0;
  for (const auto& st : procs_) total += st.ledger.real_load();
  return total;
}

void System::run(const Workload& workload) {
  DLB_REQUIRE(workload.processors() == processors(),
              "workload size must match the system");
  ActiveSchedule schedule(workload);
  // Sampled events of the step's active processors (ascending).  Two
  // passes per step — sample everything, then apply — because the
  // reference loop draws all of a step's workload randomness before any
  // balancing randomness; interleaving would reorder the RNG stream.
  StepEvents events;
  // Zero-alloc opt-in: pre-size to the bound (one event per active
  // processor) so the occupancy high-water mark never grows the vector
  // mid-run.  Gated — the O(n) reserve touches fresh pages, a real cost
  // for short runs on large systems.
  if (config_.reserve_classes > 0) events.reserve(processors());
  warm_thread_scratch();
  // Per-step allocation accounting (DESIGN.md §11): sampled only with
  // metrics attached, so the detached hot loop pays nothing.
  const bool track_allocs = metrics_ != nullptr;
  obs::AllocPhase alloc_phase;
  obs::AllocTally alloc_tally;
  if (track_allocs) alloc_phase.rebase();
  for (std::uint32_t t = 0; t < workload.horizon(); ++t) {
    obs::ScopedTimer step_span(nullptr, trace_, "step", "step", 0, t);
    const std::vector<ActiveSchedule::Entry>& entries = schedule.advance(t);
    note_active(entries.size());
    sample_events(entries, rng_, events);
    StepCounters counters;
    for (const auto& [p, ev] : events) {
      if (ev.generate) generate(p, rng_, counters);
      if (ev.consume) consume(p, rng_, counters);
    }
    commit(counters);
    if (post_step_check_) check_invariants();
    emit_loads(t);
    if (track_allocs)
      alloc_tally.note(static_cast<std::int64_t>(t), alloc_phase.take());
  }
  if (track_allocs) obs::publish(*metrics_, "system", alloc_tally);
}

void System::run_reference(const Workload& workload) {
  DLB_REQUIRE(workload.processors() == processors(),
              "workload size must match the system");
  std::vector<WorkEvent> events(processors());
  for (std::uint32_t t = 0; t < workload.horizon(); ++t) {
    for (std::uint32_t p = 0; p < processors(); ++p)
      events[p] = workload.sample(p, t, rng_);
    step(t, events);
  }
}

void System::run(const Trace& trace) {
  DLB_REQUIRE(trace.processors() == processors(),
              "trace size must match the system");
  warm_thread_scratch();
  std::vector<WorkEvent> events(processors());
  for (std::uint32_t t = 0; t < trace.horizon(); ++t) {
    for (std::uint32_t p = 0; p < processors(); ++p)
      events[p] = trace.at(p, t);
    step(t, events);
  }
}

void System::step(std::uint32_t t, const std::vector<WorkEvent>& events) {
  DLB_REQUIRE(events.size() == processors(),
              "one event per processor required");
  StepCounters counters;
  for (std::uint32_t p = 0; p < processors(); ++p) {
    if (events[p].generate) generate(p, rng_, counters);
    if (events[p].consume) consume(p, rng_, counters);
  }
  commit(counters);
  if (post_step_check_) check_invariants();
  emit_loads(t);
}

void System::touch_load(std::uint32_t p) {
  if (loads_cache_valid_) loads_cache_[p] = procs_[p].ledger.real_load();
}

void System::emit_loads(std::uint32_t t) {
  if (recorder_ == nullptr) return;
  if (!loads_cache_valid_ || loads_cache_.size() != processors()) {
    // One full rebuild when a recorder first observes this system; from
    // then on touch_load keeps the snapshot current incrementally.
    loads_cache_.resize(processors());
    for (std::uint32_t p = 0; p < processors(); ++p)
      loads_cache_[p] = procs_[p].ledger.real_load();
    loads_cache_valid_ = true;
  }
  // Recorders only observe the loads for the duration of the call (see
  // Recorder::on_loads), so handing them the live cache is safe.
  recorder_->on_loads(t, loads_cache_);
}

void System::commit(const StepCounters& counters) {
  // Each add is a locked read-modify-write, so zero fields are skipped
  // and the borrows go to the registry as one add.
  if (counters.generated != 0) {
    generated_.add(counters.generated);
    if (metrics_ != nullptr) m_.generated->add(counters.generated);
  }
  if (counters.consumed != 0) {
    consumed_.add(counters.consumed);
    if (metrics_ != nullptr) m_.consumed->add(counters.consumed);
  }
  if (counters.total_borrows != 0 && metrics_ != nullptr)
    m_.borrow_total->add(counters.total_borrows);
}

void System::generate(std::uint32_t p) {
  StepCounters counters;
  generate(p, rng_, counters);
  commit(counters);
}

void System::generate(std::uint32_t p, Rng& rng, StepCounters& counters) {
  generate_packet(p, rng, counters);
  maybe_balance(p, rng);
}

void System::generate_packet(std::uint32_t p, Rng& rng,
                             StepCounters& counters) {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  Ledger& ledger = procs_[p].ledger;
  if (ledger.borrowed_total() > 0) {
    // Appendix generate path: a new packet is booked against an
    // outstanding debt (the marker becomes a real packet of its class).
    // Marked classes are indexed in ascending order, the order the dense
    // scan produced, so the drawn index maps to the same class.
    ledger.repay_nth_marked(static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(ledger.borrowed_total()))));
  } else {
    ledger.add_real(p, 1);
  }
  ++counters.generated;
  touch_load(p);
}

bool System::consume(std::uint32_t p) {
  StepCounters counters;
  const bool ok = consume(p, rng_, counters);
  commit(counters);
  return ok;
}

bool System::consume(std::uint32_t p, Rng& rng, StepCounters& counters) {
  switch (consume_packet(p, rng, counters)) {
    case ConsumeLocal::ConsumedOwn:
      maybe_balance(p, rng);
      return true;
    case ConsumeLocal::ConsumedBorrow:
      return true;
    case ConsumeLocal::Failed:
      return false;
    case ConsumeLocal::NeedsSettle:
      break;
  }
  // Capacity exhausted or every held class already carries a marker:
  // settle outstanding debts, then retry once.
  settle_debts(p, rng);
  return try_borrow(p, rng, counters);
}

System::ConsumeLocal System::consume_packet(std::uint32_t p, Rng& rng,
                                            StepCounters& counters) {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  Ledger& ledger = procs_[p].ledger;
  if (ledger.real_load() == 0) return ConsumeLocal::Failed;  // nothing held
  if (ledger.d(p) >= 1) {
    ledger.remove_real(p, 1);
    ++counters.consumed;
    touch_load(p);
    return ConsumeLocal::ConsumedOwn;
  }
  if (try_borrow(p, rng, counters)) return ConsumeLocal::ConsumedBorrow;
  // If there are no markers to settle nothing can free capacity (this
  // can only happen with borrow_cap == 0).
  if (ledger.borrowed_total() == 0) return ConsumeLocal::Failed;
  return ConsumeLocal::NeedsSettle;
}

bool System::try_borrow(std::uint32_t p, Rng& rng, StepCounters& counters) {
  Ledger& ledger = procs_[p].ledger;
  if (ledger.borrowed_total() >=
      static_cast<std::int64_t>(config_.borrow_cap))
    return false;
  // Candidates {j : d[j] > 0, b[j] == 0} are indexed over the active
  // classes in ascending order, like the dense scan, so the drawn index
  // maps to the same class.
  const std::size_t candidates = ledger.borrowable();
  if (candidates == 0) return false;
  ledger.borrow_nth(static_cast<std::size_t>(rng.below(candidates)));
  ++counters.consumed;
  ++counters.total_borrows;
  touch_load(p);
  return true;
}

void System::settle_debts(std::uint32_t p, Rng& rng) {
  if (metrics_ != nullptr) m_.settlements->add(1);
  if (trace_ != nullptr) trace_->instant("settle", "borrow", 0, p);
  Ledger& ledger = procs_[p].ledger;
  DLB_ENSURE(ledger.borrowed_total() > 0,
             "settle_debts without outstanding markers");
  const std::uint32_t j = ledger.nth_marked(static_cast<std::size_t>(
      rng.below(static_cast<std::uint64_t>(ledger.borrowed_total()))));
  if (j == p) {
    // A marker of p's own class can be settled locally: the deferred
    // virtual decrease of class p is realized on the spot ([D6]).
    ledger.clear_marker(j);
    count_event(m_.decrease_sim);
    maybe_balance(p, rng);
    return;
  }
  if (procs_[j].ledger.d(j) > 0) {
    remote_exchange(p, j, rng);
  } else {
    resolve_empty_generator(p, j, rng);
  }
}

void System::remote_exchange(std::uint32_t p, std::uint32_t j, Rng& rng) {
  exchange_packets(p, j, costs_);
  // j's self-generated load dropped: simulate the workload decrease (at
  // most one balancing operation, as required by §4).
  maybe_balance(j, rng);
}

void System::exchange_packets(std::uint32_t p, std::uint32_t j,
                              CostLedger& costs) {
  count_event(m_.borrow_remote);
  Ledger& debtor = procs_[p].ledger;
  Ledger& generator = procs_[j].ledger;
  const std::int64_t x =
      std::min(generator.d(j), debtor.borrowed_total());
  DLB_ENSURE(x >= 1, "remote exchange with nothing to exchange");
  // x real class-j packets migrate from their generator to p, replacing
  // x of p's borrow markers (class j's markers first) — [D4].
  generator.remove_real(j, x);
  debtor.add_real(j, x);
  touch_load(p);
  touch_load(j);
  const auto moved = static_cast<std::uint64_t>(x);
  costs.record_migration(j, p, moved);
  costs.record_net_migration(moved);
  if (recorder_ != nullptr) recorder_->on_migration(j, p, moved);
  std::int64_t to_clear = x;
  if (debtor.b(j) > 0) {
    debtor.clear_marker(j);
    --to_clear;
  }
  // Remaining markers are cleared smallest class first, the order the
  // dense ascending scan used.
  while (to_clear > 0) {
    debtor.clear_marker(debtor.nth_marked(0));
    --to_clear;
  }
  count_event(m_.decrease_sim);
}

void System::resolve_empty_generator(std::uint32_t p, std::uint32_t j,
                                     Rng& rng) {
  count_event(m_.borrow_fail);
  // [D5] The generator j holds none of its own packets.  It first runs a
  // balancing operation with delta random partners, which pulls class-j
  // packets (or markers) toward j.
  {
    detail::ScratchVecLease partners;
    draw_partners(j, rng, *partners);
    balance(j, *partners, rng);
  }
  if (procs_[j].ledger.d(j) > 0 && procs_[p].ledger.borrowed_total() > 0) {
    remote_exchange(p, j, rng);
    return;
  }
  // Still empty: a balancing operation initiated by p spreads p's load
  // and markers across a fresh random set, after which p can borrow
  // again (§4: "in any case processor i is allowed to borrow some new
  // load packets ... or has received some of his own load packets").
  detail::ScratchVecLease partners;
  draw_partners(p, rng, *partners);
  balance(p, *partners, rng);
}

void System::draw_partners(std::uint32_t initiator, Rng& rng,
                           std::vector<ProcId>& out) {
  const std::uint32_t n = processors();
  if (!partner_radius_.has_value()) {
    rng.sample_distinct_into(out, n, config_.delta, initiator);
    return;
  }
  // Locality ablation: partners from the topology ball around initiator.
  detail::ScratchVecLease ball;
  for (ProcId v = 0; v < n; ++v) {
    if (v == initiator) continue;
    if (topology_->distance(initiator, v) <= *partner_radius_)
      ball->push_back(v);
  }
  DLB_ENSURE(!ball->empty(), "neighborhood contains no candidates");
  if (ball->size() <= config_.delta) {
    out.assign(ball->begin(), ball->end());
    return;
  }
  detail::ScratchVecLease idx;
  rng.sample_distinct_into(*idx, static_cast<std::uint32_t>(ball->size()),
                           config_.delta,
                           static_cast<std::uint32_t>(ball->size() + 1));
  out.clear();
  out.reserve(config_.delta);
  for (std::uint32_t k : *idx) out.push_back((*ball)[k]);
}

bool System::trigger_fires(std::uint32_t p) const {
  const ProcessorState& st = procs_[p];
  const std::int64_t d_now = st.ledger.d(p);
  const auto d_self = static_cast<double>(d_now);
  const auto old = static_cast<double>(st.l_old);
  // [D1] factor-f drift triggers with strict-change guards so f == 1 (or
  // an unchanged load) cannot retrigger immediately after a balance.
  const bool grew =
      d_now > st.l_old && d_self >= config_.f * old && d_now >= 1;
  const bool shrank =
      d_now < st.l_old && st.l_old >= 1 && d_self <= old / config_.f;
  return grew || shrank;
}

void System::maybe_balance(std::uint32_t p, Rng& rng) {
  if (!trigger_fires(p)) return;
  detail::ScratchVecLease partners;
  draw_partners(p, rng, *partners);
  balance(p, *partners, rng);
}

namespace {

// Pair-flow accounting for the deal: each matched (from, to) flow is
// charged to the cost ledger (hop-weighted when it has a topology) and
// reported to the migration recorder.  Only deals that need the pairs
// pass one; the others charge the deal's gross moves in bulk.
class BalanceFlowSink final : public SnakeFlowSink {
 public:
  BalanceFlowSink(CostLedger& costs, Recorder* recorder,
                  const std::vector<ProcId>& participants)
      : costs_(costs), recorder_(recorder), participants_(participants) {}

  void on_flow(std::size_t col, std::size_t from, std::size_t to,
               std::int64_t amount) override {
    (void)col;
    costs_.record_migration(participants_[from], participants_[to],
                            static_cast<std::uint64_t>(amount));
    if (recorder_ != nullptr)
      recorder_->on_migration(participants_[from], participants_[to],
                              static_cast<std::uint64_t>(amount));
  }

 private:
  CostLedger& costs_;
  Recorder* recorder_;
  const std::vector<ProcId>& participants_;
};

// Scratch buffers reused across balancing operations.  One warm set per
// thread: the sequential drivers use one, the async shards one each
// (their balancing operations run concurrently).  balance_deal never
// re-enters itself — recursion happens only through the follow-up
// cancels outside it — so a single per-thread set suffices.  Buffers
// only grow (see at_least), so a smaller deal re-initializes nothing.
struct BalanceScratch {
  std::vector<ProcId> participants;
  // Merge cursors, one per participant, each starting at its ledger's
  // first record and walking the records in place.
  std::vector<const Ledger::Entry*> cursors;
  // Merge output: the ascending class union and the column-major
  // (union class) x (participant) count matrices the snake deals.
  std::vector<std::uint32_t> classes;
  std::vector<std::int64_t> d;
  std::vector<std::int64_t> b;
  std::vector<SnakeExclusion> exclusions;

  // Reserves every buffer to its worst case for an m-participant deal
  // over n classes: m merge cursors, a union of at most n classes and
  // m x n matrices.  Growing to the bound up front (instead of tracking
  // the occupancy high-water mark) is what makes a deal allocation-free
  // for the rest of the run even while class occupancy is still rising —
  // the zero-alloc opt-in (reserve_classes) pays it once per thread.
  void reserve_bounds(std::size_t m, std::size_t n) {
    participants.reserve(m);
    cursors.reserve(m);
    classes.reserve(n);
    d.reserve(m * n);
    b.reserve(m * n);
    exclusions.reserve(m);
  }
};

BalanceScratch& balance_scratch() {
  thread_local BalanceScratch scratch;
  return scratch;
}

// Grow-only sizing: returns v's storage with at least `size` elements.
template <typename T>
T* at_least(std::vector<T>& v, std::size_t size) {
  if (v.size() < size) v.resize(size);
  return v.data();
}

// The (delta+1)-way merge over the participants' records, read in place:
// emits the ascending class union and, in the same pass, each union
// column of the count matrices (0 where a participant holds none of the
// class).  Each row ends at its ledger's sentinel, whose class is above
// every load class, so the merge never tests a row's length.  A cursor
// advances exactly when its record holds the emitted class, so the
// gather needs no branch.  kRows > 0 fixes m at compile time, keeping
// the cursors in registers (0: read m).  Returns the union size k.
template <bool kMarkers, std::size_t kRows>
std::size_t merge_gather(const Ledger::Entry** cursors, std::size_t dyn_m,
                         std::uint32_t* classes, std::int64_t* d_col,
                         std::int64_t* b_col) {
  const std::size_t m = kRows > 0 ? kRows : dyn_m;
  const Ledger::Entry* fixed_cursors[kRows > 0 ? kRows : 1];
  if constexpr (kRows > 0) {
    std::copy_n(cursors, kRows, fixed_cursors);
    cursors = fixed_cursors;
  }
  std::size_t k = 0;
  while (true) {
    std::uint32_t c = Ledger::kEndClass;
#pragma GCC unroll 9
    for (std::size_t r = 0; r < m; ++r) c = std::min(c, cursors[r]->cls);
    if (c == Ledger::kEndClass) return k;
    classes[k++] = c;
#pragma GCC unroll 9
    for (std::size_t r = 0; r < m; ++r) {
      const Ledger::Entry* e = cursors[r];
      const std::int64_t hit = e->cls == c ? 1 : 0;
      d_col[r] = e->d & -hit;
      if constexpr (kMarkers) b_col[r] = std::int64_t{e->b} & -hit;
      cursors[r] = e + hit;
    }
    d_col += m;
    if constexpr (kMarkers) b_col += m;
  }
}

}  // namespace

void System::warm_thread_scratch() {
  if (config_.reserve_classes == 0) return;
  const std::size_t m = static_cast<std::size_t>(config_.delta) + 1;
  balance_scratch().reserve_bounds(m, processors());
  // Depth 8 covers every balance → cancel → re-balance chain seen in
  // practice; a deeper chain merely re-warms lazily at that depth.
  detail::warm_scratch_vec_pool(8, config_.delta);
}

void System::balance(std::uint32_t initiator,
                     const std::vector<ProcId>& partners, Rng& rng) {
  // [D6] markers of a participant's own class are settled on the spot.
  // A deal that leaves no participant holding any makes every cancel a
  // no-op, so none is called.
  if (balance_deal(initiator, partners, rng, costs_, nullptr) == 0) return;
  cancel_self_markers(initiator, rng);
  for (ProcId q : partners) cancel_self_markers(q, rng);
}

std::size_t System::balance_deal(std::uint32_t initiator,
                                 const std::vector<ProcId>& partners,
                                 Rng& rng, CostLedger& costs,
                                 std::vector<ProcId>* cancel_due,
                                 std::uint32_t tid) {
  obs::ScopedTimer balance_span(m_.balance_ns, trace_, "balance_op",
                                "balance", tid, initiator);
  const std::uint32_t n = processors();
  BalanceScratch& scratch = balance_scratch();
  if (config_.reserve_classes > 0)
    scratch.reserve_bounds(partners.size() + 1, n);
  std::vector<ProcId>& participants = scratch.participants;
  participants.clear();
  participants.reserve(partners.size() + 1);
  participants.push_back(initiator);
  for (ProcId q : partners) {
    DLB_REQUIRE(q < n && q != initiator, "invalid balancing partner");
    participants.push_back(q);
  }
  const std::size_t m = participants.size();

  // (a) Merge-gather over the participants' records, in place.  Classes
  // outside the union are zero in every participant's ledger: dealing
  // them would move nothing and never advance the snake pointer, so
  // restricting the deal to the union is bit-identical to dealing over
  // all n classes.  The partners' ledgers are cold (random partners), so
  // every row's first and last lines are fetched before the merge.
  std::size_t entries = 0;
  bool any_markers = false;
  const Ledger::Entry** cursors = at_least(scratch.cursors, m);
  for (std::size_t r = 0; r < m; ++r) {
    const Ledger& ledger = procs_[participants[r]].ledger;
    const std::span<const Ledger::Entry> records = ledger.records();
    __builtin_prefetch(records.data());
    __builtin_prefetch(records.data() + records.size());
    cursors[r] = records.data();
    entries += records.size();
    any_markers = any_markers || ledger.borrowed_total() > 0;
  }
  // At least one column of room, so the row pointers below are never
  // offsets from a null buffer.
  const std::size_t max_k =
      std::max<std::size_t>(1, std::min<std::size_t>(n, entries));
  std::uint32_t* classes = at_least(scratch.classes, max_k);
  std::int64_t* d = at_least(scratch.d, m * max_k);
  std::int64_t* b = any_markers ? at_least(scratch.b, m * max_k) : nullptr;
  // The merge stops only once every cursor rests on its row's sentinel,
  // so the union covers each participant's active classes — the
  // precondition of Ledger::rebuild_dealt.
  const std::size_t k = detail::with_row_count(m, [&](auto fixed) {
    constexpr std::size_t kRows = decltype(fixed)::value;
    return any_markers
               ? merge_gather<true, kRows>(cursors, m, classes, d, b)
               : merge_gather<false, kRows>(cursors, m, classes, d, nullptr);
  });

  // (b) The snake deal.  [D7] analysis mode: a non-initiating
  // participant's own class is dealt only among the other participants.
  SnakeColumnOptions opts;
  opts.start = static_cast<std::size_t>(rng.below(m));
  if (config_.analysis_mode) {
    std::vector<SnakeExclusion>& excluded = scratch.exclusions;
    excluded.clear();
    for (std::size_t r = 1; r < m; ++r) {
      const std::uint32_t* it =
          std::lower_bound(classes, classes + k, participants[r]);
      if (it == classes + k || *it != participants[r]) continue;
      excluded.push_back({static_cast<std::size_t>(it - classes), r});
    }
    std::sort(excluded.begin(), excluded.end(),
              [](const SnakeExclusion& x, const SnakeExclusion& y) {
                return x.column < y.column;
              });
    opts.exclusions = excluded.data();
    opts.exclusion_count = excluded.size();
  }
  // Pair attribution only for hop weighting and the migration recorder;
  // without either, the gross moves are charged in one bulk record.
  const bool pair_flows = recorder_ != nullptr || costs.hop_weighted();
  BalanceFlowSink flows(costs, recorder_, participants);
  if (pair_flows) opts.flows = &flows;
  const SnakeDealResult dealt = snake_deal_columns(d, m, k, opts);
  if (!pair_flows) costs.record_migration_bulk(dealt.moved);
  // Marker deal, continuing the pointer: skipped when no participant
  // holds a marker (the matrix would be all zero, move nothing and leave
  // the pointer untouched).  Marker moves are not migration traffic.
  if (any_markers) {
    opts.start = dealt.ptr;
    opts.flows = nullptr;
    snake_deal_columns(b, m, k, opts);
  }

  // (c) Write back; every participant's local clock ticks and its
  // trigger baseline resets (§4: an operation counts as delta+1
  // independent operations initiated by each participant).  Net
  // physical flow is the sum of the positive row-total changes (what a
  // label-free implementation would actually ship).
  std::uint64_t net_moves = 0;
  std::size_t due = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const ProcId p = participants[r];
    ProcessorState& st = procs_[p];
    const std::int64_t before = st.ledger.real_load();
    const ClassCounts own = st.ledger.rebuild_dealt(
        classes, k, d + r, b != nullptr ? b + r : nullptr, m);
    const std::int64_t gained = st.ledger.real_load() - before;
    if (gained > 0) net_moves += static_cast<std::uint64_t>(gained);
    st.l_old = own.d;
    ++st.local_time;
    touch_load(p);
    // [D6] due: the deal left this participant holding markers of its
    // own class.  The sequential wrapper cancels them right here; the
    // async engine routes a cancel to the participant's owner shard.
    if (own.b > 0) {
      ++due;
      if (cancel_due != nullptr) cancel_due->push_back(p);
    }
  }
  costs.record_net_migration(net_moves);

  balance_ops_.add(1);
  costs.record_operation(initiator, partners.size());
  if (metrics_ != nullptr) {
    m_.balance_ops->add(1);
    m_.packets_moved->add(dealt.moved);
  }
  return due;
}

void System::cancel_self_markers(std::uint32_t p, Rng& rng) {
  Ledger& ledger = procs_[p].ledger;
  if (ledger.b(p) == 0) return;
  while (ledger.b(p) > 0) ledger.clear_marker(p);
  count_event(m_.decrease_sim);
  maybe_balance(p, rng);
}

void System::force_balance(std::uint32_t p) {
  DLB_REQUIRE(p < processors(), "processor id out of range");
  detail::ScratchVecLease partners;
  draw_partners(p, rng_, *partners);
  balance(p, *partners, rng_);
}

void System::check_invariants() const {
  std::int64_t total = 0;
  for (std::uint32_t p = 0; p < processors(); ++p) {
    procs_[p].ledger.check(config_.borrow_cap);
    total += procs_[p].ledger.real_load();
  }
  DLB_ENSURE(total == static_cast<std::int64_t>(generated_.get()) -
                          static_cast<std::int64_t>(consumed_.get()),
             "packet conservation violated");
}

}  // namespace dlb
