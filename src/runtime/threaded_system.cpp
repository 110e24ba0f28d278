#include "runtime/threaded_system.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/alloc.hpp"
#include "obs/timer.hpp"
#include "support/check.hpp"

namespace dlb {

class ThreadedSystem::Worker final : public TxnHost {
 public:
  Worker(std::uint32_t id, ThreadedSystem& owner, const Trace& trace,
         std::uint64_t seed)
      : id_(id),
        owner_(owner),
        trace_(trace),
        rng_(seed),
        endpoint_(id, owner.config_.f, owner.config_.delta, owner.faults_on_) {
    drain_buf_.reserve(2 * static_cast<std::size_t>(owner_.processors_));
    if (owner_.faults_on_) {
      links_.resize(owner_.processors_);
      held_.resize(owner_.processors_);
      for (std::uint32_t d = 0; d < owner_.processors_; ++d)
        links_[d].reset(owner_.config_.faults.seed, static_cast<int>(id_),
                        static_cast<int>(d),
                        owner_.config_.faults.default_link);
    }
  }

  void operator()() {
    const std::int64_t crash_at =
        owner_.faults_on_
            ? owner_.config_.faults.crash_step(static_cast<int>(id_))
            : -1;
    const bool track_allocs = owner_.metrics_ != nullptr;
    obs::AllocPhase alloc_phase;
    if (track_allocs) alloc_phase.rebase();
    for (std::uint32_t t = 0; t < trace_.horizon(); ++t) {
      if (crash_at >= 0 && crash_at == static_cast<std::int64_t>(t)) {
        die();
        return;
      }
      // Serve any pending invites before acting, so heavily loaded
      // threads cannot starve their partners.
      drain_mailbox();
      endpoint_.apply(trace_.at(id_, t), *this);
      settle();  // the transaction the demand triggered, if any
      txn_span_.reset();
      if (owner_.faults_on_)
        owner_.journal_.observe(
            id_, t, endpoint_.load(),
            static_cast<std::int64_t>(endpoint_.counters().generated),
            static_cast<std::int64_t>(endpoint_.counters().consumed));
      if (track_allocs)
        alloc_.note(static_cast<std::int64_t>(t), alloc_phase.take());
    }
    // Finished our own demand: release delayed in-flight messages, then
    // keep serving transactions from slower threads until everyone is
    // done and the Shutdown message arrives.
    flush_held();
    owner_.done_count_.fetch_add(1, std::memory_order_acq_rel);
    serve_until_shutdown();
    // Transactions served while idling are steady-state work too;
    // account them against the final step so nothing hides post-loop.
    if (track_allocs && trace_.horizon() > 0)
      alloc_.note(static_cast<std::int64_t>(trace_.horizon()) - 1,
                  alloc_phase.take());
  }

  /// Called after the join.  A worker stops reading at its Shutdown, so
  /// messages that reached it later (late Accepts, rollback Assigns) are
  /// still queued; left there, the next run() would hand them to fresh
  /// endpoints, whose transaction ids restart.  As in the zombie drain,
  /// each Assign goes to the idle endpoint's stray path, which declares
  /// its delta lost once, in the run that sent it; the other messages
  /// carry no load and are dropped.
  void drain_leftovers() {
    drain_buf_.clear();
    mailbox().drain_into(drain_buf_);
    for (const Message& msg : drain_buf_)
      if (!msg.shutdown && msg.type == TxnMsg::Type::Assign)
        endpoint_.deliver(msg, *this);
    drain_buf_.clear();
  }

  std::int64_t final_load() const { return endpoint_.load(); }
  const TxnCounters& counters() const { return endpoint_.counters(); }
  const ThreadedStats& stats() const { return stats_; }
  const obs::AllocTally& alloc_tally() const { return alloc_; }

 private:
  bool is_dead(std::uint32_t p) const {
    return owner_.dead_[p].load(std::memory_order_acquire) != 0;
  }

  /// The owner's trace buffer iff recording is on; null otherwise, so
  /// call sites stay a single pointer check.  Each worker renders as
  /// its own track (tid == processor id).
  obs::TraceBuffer* tracer() const {
    obs::TraceBuffer* t = owner_.trace_;
    return (t != nullptr && t->enabled()) ? t : nullptr;
  }

  Mailbox<Message>& mailbox() { return *owner_.mailboxes_[id_]; }

  /// Scheduled crash: journal-recover the load (drift is declared
  /// lost), raise the dead flag so survivors blacklist us, and stop
  /// participating — held (delayed) messages strand with the crash.
  /// The thread lingers as a silent zombie draining its mailbox until
  /// Shutdown: it never replies, but Assign deltas that were in flight
  /// toward it when it died are strays to its idle endpoint, which
  /// declares each lost once (senders that saw the dead flag account on
  /// their side; exactly one side sees each message).
  void die() {
    if (obs::TraceBuffer* tb = tracer())
      tb->instant("crash", "fault", id_, id_);
    stats_.lost_load += owner_.journal_.on_crash(id_);
    stats_.ranks_dead = 1;
    owner_.dead_[id_].store(1, std::memory_order_release);
    owner_.done_count_.fetch_add(1, std::memory_order_acq_rel);
    while (true) {
      auto msg = mailbox().recv();
      if (!msg.has_value() || msg->shutdown) return;
      if (msg->type == TxnMsg::Type::Assign) endpoint_.deliver(*msg, *this);
    }
  }

  /// A lost Assign's delta is load in no one's ledger; everything else
  /// is control traffic.
  void account_lost(const TxnMsg& msg) {
    ++stats_.lost_packets;
    if (msg.type == TxnMsg::Type::Assign) stats_.lost_load += msg.load;
  }

  void deliver(std::uint32_t to, const TxnMsg& msg) {
    owner_.mailboxes_[to]->send(Message{msg});
  }

  void send(std::uint32_t to, const TxnMsg& msg) override {
    if (!owner_.faults_on_) {
      deliver(to, msg);
      return;
    }
    if (is_dead(to)) {
      account_lost(msg);
      return;
    }
    const FaultDecision decision = links_[to].next();
    if (decision.drop) {
      account_lost(msg);
      return;
    }
    // A delayed message is released just after the next message that
    // flows on the same link (deterministic reorder per link stream).
    std::optional<TxnMsg> release = std::exchange(held_[to], std::nullopt);
    if (decision.delay) {
      held_[to] = msg;
      if (release) deliver(to, *release);
      return;
    }
    if (decision.duplicate) deliver(to, msg);
    deliver(to, msg);
    if (release) deliver(to, *release);
  }

  void flush_held() {
    if (!owner_.faults_on_) return;
    for (std::uint32_t d = 0; d < owner_.processors_; ++d) {
      if (held_[d] && !is_dead(d)) deliver(d, *held_[d]);
      held_[d].reset();
    }
  }

  /// Next message out of the drained batch, if any.  The transaction
  /// wait loop consults this BEFORE blocking on the mailbox: a partner
  /// locked into one transaction must still see (and refuse) an Invite
  /// that was pulled into the batch just before the lock, exactly as it
  /// would have seen it in the mailbox — otherwise three initiators can
  /// deadlock in a cycle, each waiting on a reply buried in a batch.
  std::optional<Message> buffered_message() {
    if (drain_pos_ < drain_buf_.size()) return drain_buf_[drain_pos_++];
    return std::nullopt;
  }

  void drain_mailbox() {
    // Batch drain: one mutex round-trip pulls everything queued, then
    // the messages are handled lock-free.  Handling can send (and with
    // faults, deliver to ourselves), so keep draining until a pass
    // comes back empty.  settle() can consume the batch tail itself
    // through buffered_message(), hence the cursor-based walk.
    for (;;) {
      while (auto msg = buffered_message()) feed(*msg);
      drain_buf_.clear();
      drain_pos_ = 0;
      if (mailbox().drain_into(drain_buf_) == 0) return;
    }
  }

  void serve_until_shutdown() {
    while (true) {
      auto msg = mailbox().recv();
      if (!msg.has_value() || msg->shutdown) return;
      feed(*msg);
    }
  }

  /// Hands a message to the idle endpoint.  An Invite it accepts locks
  /// it, and the lock is served to its end before anything else.
  void feed(const Message& msg) {
    if (msg.shutdown) return;
    endpoint_.deliver(msg, *this);
    if (endpoint_.idle()) return;
    // Span: accepted -> Assign applied (or rollback).  Renders on this
    // worker's track next to the initiator's balance_txn span.
    const obs::ScopedTimer lock_span(nullptr, tracer(), "partner_lock", "txn",
                                     id_, msg.txn);
    settle();
  }

  /// Feeds the endpoint until its open transaction closes.  With faults
  /// every wait has a monotonic deadline.  An initiator's re-arms only
  /// when a pending reply resolves: strays and duplicates cannot keep
  /// postponing the verdict, so the wait is bounded by (partners ×
  /// txn_timeout).  A locked partner's re-arms on every delivered
  /// message: traffic proves the initiator's side of the system is
  /// alive, silence for a whole txn_timeout proves the Assign is not
  /// coming.
  void settle() {
    if (endpoint_.idle()) return;
    const bool locked = endpoint_.mode() == TxnEndpoint::Mode::Locked;
    const auto timeout = owner_.config_.txn_timeout;
    auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!endpoint_.idle()) {
      auto msg = buffered_message();
      if (!msg.has_value())
        msg = owner_.faults_on_ ? mailbox().recv_until(deadline)
                                : mailbox().recv();
      if (!msg.has_value()) {
        DLB_ENSURE(owner_.faults_on_, "mailbox closed mid-transaction");
        if (obs::TraceBuffer* tb = tracer())
          tb->instant(locked ? "txn_abort" : "txn_timeout", "fault", id_,
                      endpoint_.txn());
        ++stats_.timeouts;
        endpoint_.timeout(*this);
        return;
      }
      if (msg->shutdown) {
        // Shutdown can only overtake a pending Assign when the initiator
        // already gave up on us: roll back, and re-queue the Shutdown so
        // the serve loop (which is waiting on it) still terminates.
        DLB_ENSURE(owner_.faults_on_ && locked,
                   "shutdown during a pending transaction");
        endpoint_.timeout(*this);
        mailbox().send(*msg);
        return;
      }
      const std::uint32_t pending = endpoint_.pending();
      endpoint_.deliver(*msg, *this);
      if (owner_.faults_on_ && (locked || endpoint_.pending() < pending))
        deadline = std::chrono::steady_clock::now() + timeout;
    }
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
    if (!owner_.faults_on_) {
      rng_.sample_distinct_into(partners, owner_.processors_,
                                owner_.config_.delta, id_);
      return;
    }
    std::uint32_t live_others = 0;
    for (std::uint32_t p = 0; p < owner_.processors_; ++p)
      if (p != id_ && !is_dead(p)) ++live_others;
    const std::uint32_t k = std::min(owner_.config_.delta, live_others);
    partners.reserve(k);
    while (partners.size() < k) {
      const auto v = static_cast<std::uint32_t>(
          rng_.below(owner_.processors_));
      if (v == id_ || is_dead(v)) continue;
      if (std::find(partners.begin(), partners.end(), v) != partners.end())
        continue;
      partners.push_back(v);
    }
  }

  std::uint32_t id_;
  ThreadedSystem& owner_;
  const Trace& trace_;
  Rng rng_;
  TxnEndpoint endpoint_;
  // Driver-side counts: expired waits, messages lost to the link or a
  // dead destination, and the crash (the endpoint counts the rest).
  ThreadedStats stats_;
  std::optional<obs::ScopedTimer> txn_span_;
  // Reusable buffer for the batched mailbox drain (warm across calls)
  // plus the consumption cursor (see buffered_message()).
  std::vector<Message> drain_buf_;
  std::size_t drain_pos_ = 0;
  obs::AllocTally alloc_;
  // Fault-mode state (untouched in fault-free runs).
  std::vector<LinkFaultState> links_;
  std::vector<std::optional<TxnMsg>> held_;
};

ThreadedSystem::ThreadedSystem(std::uint32_t processors,
                               ThreadedConfig config)
    : processors_(processors), config_(std::move(config)) {
  DLB_REQUIRE(processors_ >= 2, "threaded system needs >= 2 processors");
  DLB_REQUIRE(config_.delta >= 1 && config_.delta < processors_,
              "delta out of range");
  DLB_REQUIRE(config_.f > 1.0, "threaded runtime requires f > 1");
  DLB_REQUIRE(config_.txn_timeout.count() > 0,
              "transaction timeout must be positive");
  for (const CrashEvent& c : config_.faults.crashes)
    DLB_REQUIRE(c.rank >= 0 &&
                    c.rank < static_cast<int>(processors_),
                "crash rank out of range");
  faults_on_ = config_.faults.enabled();
  mailboxes_.reserve(processors_);
  for (std::uint32_t p = 0; p < processors_; ++p) {
    mailboxes_.push_back(std::make_unique<Mailbox<Message>>());
    // Warm the ring past any realistic in-flight depth (each peer keeps
    // at most one transaction open: one Invite plus one Assign toward
    // us, plus our own replies) so steady-state traffic never grows it.
    mailboxes_.back()->reserve(2 * static_cast<std::size_t>(processors_));
  }
  dead_ = std::make_unique<std::atomic<std::uint8_t>[]>(processors_);
}

ThreadedSystem::~ThreadedSystem() = default;

bool ThreadedSystem::processor_dead(std::uint32_t p) const {
  DLB_REQUIRE(p < processors_, "processor id out of range");
  return dead_[p].load(std::memory_order_acquire) != 0;
}

void ThreadedSystem::run(const Trace& trace) {
  DLB_REQUIRE(trace.processors() == processors_,
              "trace size must match the system");
  done_count_.store(0, std::memory_order_release);
  for (std::uint32_t p = 0; p < processors_; ++p)
    dead_[p].store(0, std::memory_order_release);
  journal_ = LoadJournal(processors_, config_.faults.journal_interval);
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

  std::vector<std::thread> threads;
  threads.reserve(processors_);
  for (auto& worker : workers)
    threads.emplace_back([&worker] { (*worker)(); });

  // Wait until every worker finished its trace column (or died at its
  // scheduled step).  A live worker only increments done_count_ after
  // completing all transactions it initiated, so once the count reaches
  // n there are no in-flight invites from finished workers; any
  // still-queued invites are answered by the serve loops before
  // Shutdown is processed (FIFO mailboxes).  Invites addressed to dead
  // workers are reclaimed by the initiator's deadline.
  while (done_count_.load(std::memory_order_acquire) < processors_)
    std::this_thread::yield();
  for (std::uint32_t p = 0; p < processors_; ++p)
    mailboxes_[p]->send(Message{{}, true});
  for (auto& thread : threads) thread.join();
  for (auto& worker : workers) worker->drain_leftovers();

  final_loads_.assign(processors_, 0);
  stats_ = ThreadedStats{};
  for (std::uint32_t p = 0; p < processors_; ++p) {
    final_loads_[p] = processor_dead(p) ? journal_.recovered_load(p)
                                        : workers[p]->final_load();
    const TxnCounters& c = workers[p]->counters();
    const ThreadedStats& ws = workers[p]->stats();
    stats_.balance_ops += c.balance_ops;
    stats_.refusals += c.refusals;
    stats_.messages += c.messages;
    stats_.consume_failures += c.consume_failures;
    stats_.generated += c.generated;
    stats_.consumed += c.consumed;
    stats_.rollbacks += c.rollbacks;
    stats_.timeouts += ws.timeouts;
    stats_.lost_packets += ws.lost_packets + c.lost_packets;
    stats_.ranks_dead += ws.ranks_dead;
    stats_.lost_load += ws.lost_load + c.lost_load;
  }
  // Publish the aggregated stats as registry counters.  Done once at the
  // end of the run: the per-worker stats_ structs already accumulate on
  // each thread's own cache line, so the hot paths stay untouched.
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
