#include "runtime/threaded_system.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "mp/transport.hpp"
#include "obs/alloc.hpp"
#include "obs/timer.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {

namespace {

// A transaction message travels as {type, txn, load} on one application
// tag; its sender is the message's source.  The end-of-run Done rides
// the reliable control plane (kReservedTagFloor + 1 and + 2 are
// remote_comm's gather and clock_sync).
constexpr int kTxnTag = 0;
constexpr int kDoneTag = Transport::kReservedTagFloor + 3;

TxnMsg decode(const MpMessage& msg) {
  return TxnMsg{static_cast<TxnMsg::Type>(msg.payload[0]),
                static_cast<std::uint32_t>(msg.source),
                static_cast<std::uint64_t>(msg.payload[1]), msg.payload[2]};
}

}  // namespace

class ThreadedSystem::Worker final : public TxnHost {
 public:
  Worker(std::uint32_t id, ThreadedSystem& owner, const Trace& trace,
         std::uint64_t seed)
      : id_(id),
        owner_(owner),
        trace_(trace),
        rng_(seed),
        faults_on_(owner.world_.fault_plan().enabled()),
        endpoint_(id, owner.config_.f, owner.config_.delta, faults_on_) {}

  /// The processor's World::launch body.
  void operator()(Comm& comm) {
    comm_ = &comm;
    const bool track_allocs = owner_.metrics_ != nullptr;
    obs::AllocPhase alloc_phase;
    if (track_allocs) alloc_phase.rebase();
    try {
      for (std::uint32_t t = 0; t < trace_.horizon(); ++t) {
        comm.tick();  // a scheduled crash throws here
        // Serve any pending invites before acting, so heavily loaded
        // processors cannot starve their partners.
        while (auto msg = comm.try_recv(-1, -1)) handle(*msg);
        endpoint_.apply(trace_.at(id_, t), *this);
        settle();  // the transaction the demand triggered, if any
        txn_span_.reset();
        comm.journal(
            endpoint_.load(),
            static_cast<std::int64_t>(endpoint_.counters().generated),
            static_cast<std::int64_t>(endpoint_.counters().consumed));
        if (track_allocs)
          alloc_.note(static_cast<std::int64_t>(t), alloc_phase.take());
      }
    } catch (const RankCrashed&) {
      if (obs::TraceBuffer* tb = tracer())
        tb->instant("crash", "fault", id_, id_);
      wind_down(/*crashed=*/true);
      throw;
    }
    // Finished our own demand: release delayed messages so they precede
    // our Done, then keep serving slower processors.
    comm.flush();
    wind_down(/*crashed=*/false);
    // Transactions served while idling are steady-state work too;
    // account them against the final step so nothing hides post-loop.
    if (track_allocs && trace_.horizon() > 0)
      alloc_.note(static_cast<std::int64_t>(trace_.horizon()) - 1,
                  alloc_phase.take());
  }

  std::int64_t final_load() const { return endpoint_.load(); }
  const TxnCounters& counters() const { return endpoint_.counters(); }
  std::uint64_t timeouts() const { return timeouts_; }
  const obs::AllocTally& alloc_tally() const { return alloc_; }

 private:
  /// The owner's trace buffer iff recording is on; null otherwise, so
  /// call sites stay a single pointer check.  Each processor renders as
  /// its own track (tid == processor id).
  obs::TraceBuffer* tracer() const {
    obs::TraceBuffer* t = owner_.trace_;
    return (t != nullptr && t->enabled()) ? t : nullptr;
  }

  /// End of run: announce Done to every peer, then take messages until
  /// every peer has announced its own.  Nothing that carries load
  /// follows a peer's Done, so nothing is left for a later run.  A
  /// finished processor keeps serving transactions meanwhile.  A crashed
  /// one is a silent zombie: it answers nothing, and hands each Assign
  /// that was in flight toward it to its idle endpoint's stray path,
  /// which declares the delta lost once (the fault decorator reports
  /// the sends it discarded, so exactly one side sees each message).
  /// The waits have deadlines because an any-source receive raises once
  /// no peer is alive.
  void wind_down(bool crashed) {
    for (std::uint32_t p = 0; p < owner_.processors_; ++p)
      if (p != id_) comm_->send(static_cast<int>(p), kDoneTag, {});
    while (peers_done_ + 1 < owner_.processors_) {
      const auto msg = comm_->recv_for(-1, -1, owner_.config_.txn_timeout);
      if (!msg.has_value()) continue;
      if (!crashed || msg->tag == kDoneTag) {
        handle(*msg);
        continue;
      }
      const TxnMsg txn = decode(*msg);
      if (txn.type == TxnMsg::Type::Assign) endpoint_.deliver(txn, *this);
    }
  }

  /// One message off the wire: a peer's Done, or a transaction message
  /// for the idle endpoint.  An Invite it accepts locks it, and the lock
  /// is served to its end before anything else.
  void handle(const MpMessage& msg) {
    if (msg.tag == kDoneTag) {
      ++peers_done_;
      return;
    }
    const TxnMsg txn = decode(msg);
    endpoint_.deliver(txn, *this);
    if (endpoint_.idle()) return;
    // Span: accepted -> Assign applied (or rollback).  Renders on this
    // processor's track next to the initiator's balance_txn span.
    const obs::ScopedTimer lock_span(nullptr, tracer(), "partner_lock", "txn",
                                     id_, txn.txn);
    settle();
  }

  /// Feeds the endpoint until its open transaction closes.  With faults
  /// every wait has a monotonic deadline.  An initiator's re-arms only
  /// when a pending reply resolves: strays and duplicates cannot keep
  /// postponing the verdict, so the wait is bounded by (partners ×
  /// txn_timeout).  A locked partner's re-arms on every transaction
  /// message: traffic proves the initiator's side of the system is
  /// alive, silence for a whole txn_timeout proves the Assign is not
  /// coming.
  void settle() {
    if (endpoint_.idle()) return;
    const bool locked = endpoint_.mode() == TxnEndpoint::Mode::Locked;
    const auto timeout = owner_.config_.txn_timeout;
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!endpoint_.idle()) {
      std::optional<MpMessage> msg;
      if (faults_on_)
        msg = comm_->recv_until(-1, -1, deadline);
      else
        msg = comm_->recv(-1, -1);
      if (!msg.has_value()) {
        if (obs::TraceBuffer* tb = tracer())
          tb->instant(locked ? "txn_abort" : "txn_timeout", "fault", id_,
                      endpoint_.txn());
        ++timeouts_;
        endpoint_.timeout(*this);
        return;
      }
      if (msg->tag == kDoneTag) {
        ++peers_done_;
        continue;
      }
      const std::uint32_t pending = endpoint_.pending();
      endpoint_.deliver(decode(*msg), *this);
      if (faults_on_ && (locked || endpoint_.pending() < pending))
        deadline = std::chrono::steady_clock::now() + timeout;
    }
  }

  void send(std::uint32_t to, const TxnMsg& msg) override {
    comm_->send(static_cast<int>(to), kTxnTag,
                {static_cast<std::int64_t>(msg.type),
                 static_cast<std::int64_t>(msg.txn), msg.load});
  }

  void open(std::uint32_t self, std::uint64_t txn,
            std::vector<std::uint32_t>& partners) override {
    (void)self;
    // Span: the whole Invite/Accept-or-Refuse/Assign exchange, closed by
    // the step loop; histogram threaded.txn_ns when metrics are attached.
    txn_span_.emplace(owner_.txn_hist_, tracer(), "balance_txn", "txn", id_,
                      txn);
    draw_partners(partners);
  }

  /// Partner draw.  Fault-free: the historical uniform draw over all
  /// other processors.  With faults: dead processors are blacklisted and
  /// the draw is redone uniformly over the survivors, preserving the
  /// uniform-choice model restricted to live processors.
  void draw_partners(std::vector<std::uint32_t>& partners) {
    const std::uint32_t n = owner_.processors_;
    if (!faults_on_) {
      rng_.sample_distinct_into(partners, n, owner_.config_.delta, id_);
      return;
    }
    const auto alive = [this](std::uint32_t p) {
      return comm_->rank_alive(static_cast<int>(p));
    };
    std::uint32_t live_others = 0;
    for (std::uint32_t p = 0; p < n; ++p)
      if (p != id_ && alive(p)) ++live_others;
    const std::uint32_t k = std::min(owner_.config_.delta, live_others);
    partners.reserve(k);
    while (partners.size() < k) {
      const auto v = static_cast<std::uint32_t>(rng_.below(n));
      if (v == id_ || !alive(v)) continue;
      if (std::find(partners.begin(), partners.end(), v) != partners.end())
        continue;
      partners.push_back(v);
    }
  }

  std::uint32_t id_;
  ThreadedSystem& owner_;
  const Trace& trace_;
  Rng rng_;
  bool faults_on_;
  TxnEndpoint endpoint_;
  Comm* comm_ = nullptr;          // valid inside the launch body
  std::uint32_t peers_done_ = 0;  // peers whose Done has arrived
  std::uint64_t timeouts_ = 0;    // expired waits (the endpoint counts
                                  // the rest)
  std::optional<obs::ScopedTimer> txn_span_;
  obs::AllocTally alloc_;
};

ThreadedSystem::ThreadedSystem(std::uint32_t processors,
                               ThreadedConfig config)
    : processors_(processors),
      config_(std::move(config)),
      world_(static_cast<int>(processors)) {
  DLB_REQUIRE(processors_ >= 2, "threaded system needs >= 2 processors");
  DLB_REQUIRE(config_.delta >= 1 && config_.delta < processors_,
              "delta out of range");
  DLB_REQUIRE(config_.f > 1.0, "threaded runtime requires f > 1");
  DLB_REQUIRE(config_.txn_timeout.count() > 0,
              "transaction timeout must be positive");
  world_.set_fault_plan(config_.faults);  // rejects out-of-range crashes
}

ThreadedSystem::~ThreadedSystem() = default;

bool ThreadedSystem::processor_dead(std::uint32_t p) const {
  DLB_REQUIRE(p < processors_, "processor id out of range");
  return world_.rank_dead(static_cast<int>(p));
}

void ThreadedSystem::run(const Trace& trace) {
  DLB_REQUIRE(trace.processors() == processors_,
              "trace size must match the system");
  txn_hist_ =
      metrics_ != nullptr ? &metrics_->histogram("threaded.txn_ns") : nullptr;
  if (trace_ != nullptr && trace_->enabled())
    for (std::uint32_t p = 0; p < processors_; ++p)
      trace_->set_thread_name(p, "proc " + std::to_string(p));
  Rng seeder(config_.seed);

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(processors_);
  for (std::uint32_t p = 0; p < processors_; ++p)
    workers.push_back(
        std::make_unique<Worker>(p, *this, trace, seeder.next()));
  world_.launch([&workers](Comm& comm) {
    (*workers[static_cast<std::size_t>(comm.rank())])(comm);
  });

  final_loads_.assign(processors_, 0);
  stats_ = ThreadedStats{};
  for (std::uint32_t p = 0; p < processors_; ++p) {
    final_loads_[p] = processor_dead(p) ? journal().recovered_load(p)
                                        : workers[p]->final_load();
    const TxnCounters& c = workers[p]->counters();
    stats_.balance_ops += c.balance_ops;
    stats_.refusals += c.refusals;
    stats_.messages += c.messages;
    stats_.consume_failures += c.consume_failures;
    stats_.generated += c.generated;
    stats_.consumed += c.consumed;
    stats_.rollbacks += c.rollbacks;
    stats_.timeouts += workers[p]->timeouts();
    stats_.lost_packets += c.lost_packets;
    stats_.lost_load += c.lost_load;
  }
  // The World declared each crash's journal drift; the decorator
  // reported every transaction message it did not deliver, and a lost
  // Assign's delta is load in no one's ledger.
  const FaultStats faults = world_.fault_stats();
  stats_.ranks_dead = faults.ranks_dead;
  stats_.lost_load += faults.declared_lost_load;
  for (const MpMessage& msg : world_.discarded()) {
    const TxnMsg lost = decode(msg);
    ++stats_.lost_packets;
    if (lost.type == TxnMsg::Type::Assign) stats_.lost_load += lost.load;
  }
  // Publish the aggregated stats as registry counters.  Done once at the
  // end of the run: the per-worker counts accumulate on each thread's
  // own cache line, so the hot paths stay untouched.
  if (metrics_ != nullptr) {
    metrics_->counter("threaded.balance_ops").add(stats_.balance_ops);
    metrics_->counter("threaded.refusals").add(stats_.refusals);
    metrics_->counter("threaded.messages").add(stats_.messages);
    metrics_->counter("threaded.consume_failures")
        .add(stats_.consume_failures);
    metrics_->counter("threaded.generated").add(stats_.generated);
    metrics_->counter("threaded.consumed").add(stats_.consumed);
    metrics_->counter("threaded.fault.timeouts").add(stats_.timeouts);
    metrics_->counter("threaded.fault.rollbacks").add(stats_.rollbacks);
    metrics_->counter("threaded.fault.lost_packets")
        .add(stats_.lost_packets);
    metrics_->counter("threaded.fault.ranks_dead").add(stats_.ranks_dead);
    metrics_->gauge("threaded.lost_load").add(stats_.lost_load);
    obs::AllocTally alloc;
    for (const auto& worker : workers) alloc.merge(worker->alloc_tally());
    obs::publish(*metrics_, "threaded", alloc);
  }
}

}  // namespace dlb
