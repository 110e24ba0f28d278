#include "mp/communicator.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>

#include "mp/fault_transport.hpp"
#include "support/check.hpp"

namespace dlb {

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag,
                std::initializer_list<std::int64_t> words) {
  send(dest, tag, words.begin(), words.size());
}

void Comm::send(int dest, int tag, const std::int64_t* words,
                std::size_t count) {
  DLB_REQUIRE(dest >= 0 && dest < world_->size(), "invalid destination");
  transport_->send(dest, tag, words, count);
}

MpMessage Comm::recv(int source, int tag) {
  return transport_->recv(source, tag);
}

std::optional<MpMessage> Comm::try_recv(int source, int tag) {
  return transport_->try_recv(source, tag);
}

std::optional<MpMessage> Comm::recv_for(int source, int tag,
                                        std::chrono::milliseconds timeout) {
  return recv_until(source, tag, std::chrono::steady_clock::now() + timeout);
}

std::optional<MpMessage> Comm::recv_until(
    int source, int tag, std::chrono::steady_clock::time_point deadline) {
  return transport_->recv_until(source, tag, deadline);
}

void Comm::flush() { transport_->flush(); }

void Comm::barrier() {
  world_->gather_all_into(rank_, 0, gather_scratch_);
}

bool Comm::barrier_checked() {
  world_->gather_all_into(rank_, 0, gather_scratch_);
  return gather_scratch_.degraded;
}

std::int64_t Comm::broadcast(std::int64_t value, int root) {
  DLB_REQUIRE(root >= 0 && root < world_->size(), "invalid root");
  world_->gather_all_into(rank_, value, gather_scratch_);
  return gather_scratch_.values[static_cast<std::size_t>(root)];
}

std::int64_t Comm::allreduce_sum(std::int64_t value) {
  world_->gather_all_into(rank_, value, gather_scratch_);
  std::int64_t total = 0;
  for (std::int64_t v : gather_scratch_.values) total += v;
  return total;
}

std::int64_t Comm::allreduce_min(std::int64_t value) {
  world_->gather_all_into(rank_, value, gather_scratch_);
  const GatherResult& all = gather_scratch_;
  std::int64_t best = value;
  for (std::size_t r = 0; r < all.values.size(); ++r)
    if (all.alive[r]) best = std::min(best, all.values[r]);
  return best;
}

std::int64_t Comm::allreduce_max(std::int64_t value) {
  world_->gather_all_into(rank_, value, gather_scratch_);
  const GatherResult& all = gather_scratch_;
  std::int64_t best = value;
  for (std::size_t r = 0; r < all.values.size(); ++r)
    if (all.alive[r]) best = std::max(best, all.values[r]);
  return best;
}

std::vector<std::int64_t> Comm::allgather(std::int64_t value) {
  return world_->gather_all(rank_, value).values;
}

GatherResult Comm::allgather_checked(std::int64_t value) {
  return world_->gather_all(rank_, value);
}

void Comm::allgather_checked(std::int64_t value, GatherResult& out) {
  world_->gather_all_into(rank_, value, out);
}

void Comm::tick() {
  if (world_->faults_armed_ &&
      world_->plan_.crash_step(rank_) == static_cast<std::int64_t>(step_)) {
    world_->mark_dead(rank_, step_);
    throw RankCrashed{rank_, step_};
  }
  ++step_;
}

void Comm::journal(std::int64_t load, std::int64_t generated,
                   std::int64_t consumed) {
  world_->journal_.observe(static_cast<std::uint32_t>(rank_), step_, load,
                           generated, consumed);
}

void Comm::declare_lost(std::int64_t amount) {
  std::lock_guard<std::mutex> lock(world_->stats_mutex_);
  world_->stats_.declared_lost_load += amount;
}

bool Comm::rank_alive(int rank) const {
  DLB_REQUIRE(rank >= 0 && rank < world_->size(), "invalid rank");
  return world_->status(rank) == World::RankStatus::Alive;
}

World::World(int size) : size_(size) {
  DLB_REQUIRE(size >= 1, "world needs at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    // Warm each ring past the in-flight depth of a protocol that keeps
    // a few messages per peer on the wire (ThreadedSystem: an Invite,
    // an Assign, a reply and the end-of-run Done), so steady traffic
    // never grows it mid-run.
    mailboxes_.back()->messages.reserve(4 * static_cast<std::size_t>(size));
  }
  collective_.slots.assign(static_cast<std::size_t>(size), 0);
  collective_.alive_snapshot.assign(static_cast<std::size_t>(size), 1);
  statuses_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    statuses_[static_cast<std::size_t>(r)].store(
        static_cast<std::uint8_t>(RankStatus::Alive),
        std::memory_order_relaxed);
  journal_ = LoadJournal(static_cast<std::uint32_t>(size), 1);
}

void World::set_fault_plan(FaultPlan plan) {
  DLB_REQUIRE(plan.journal_interval >= 1, "journal interval must be >= 1");
  for (const CrashEvent& c : plan.crashes)
    DLB_REQUIRE(c.rank >= 0 && c.rank < size_, "crash rank out of range");
  plan_ = std::move(plan);
}

void World::arm_launch() {
  faults_armed_ = plan_.enabled();
  for (int r = 0; r < size_; ++r)
    statuses_[static_cast<std::size_t>(r)].store(
        static_cast<std::uint8_t>(RankStatus::Alive),
        std::memory_order_release);
  // A crashed launch can strand messages and leave a round half-open;
  // re-arm from a clean slate so launches are independent.
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mutex);
    box->messages.clear();
  }
  {
    std::lock_guard<std::mutex> lock(collective_.mutex);
    collective_.arrived = 0;
    collective_.departing = 0;
    collective_.generation = 0;
    std::fill(collective_.slots.begin(), collective_.slots.end(), 0);
    std::fill(collective_.alive_snapshot.begin(),
              collective_.alive_snapshot.end(), 1);
    collective_.degraded_snapshot = false;
  }
  journal_ = LoadJournal(static_cast<std::uint32_t>(size_),
                         plan_.journal_interval);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_ = FaultStats{};
    discarded_.clear();
  }
}

void World::launch(const std::function<void(Comm&)>& body) {
  DLB_REQUIRE(static_cast<bool>(body), "launch needs a body");
  arm_launch();
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, r, &body, &first_error, &error_mutex] {
      // The transport stack is per-rank, per-launch: the in-process
      // backend, wrapped by the fault decorator when a plan is armed.
      LocalTransport local(*this, r);
      std::optional<FaultyTransport> faulty;
      if (faults_armed_)
        faulty.emplace(local, plan_,
                       FaultSink{&stats_mutex_, &stats_, wm_.dropped,
                                 wm_.duplicated, wm_.delayed,
                                 wm_.sends_to_dead, &discarded_});
      Transport& transport =
          faulty ? static_cast<Transport&>(*faulty) : local;
      Comm comm(*this, r, transport);
      try {
        body(comm);
        // Normal completion: release any delayed in-flight messages
        // (fault-free semantics must not lose traffic), then announce
        // termination so peers error out instead of waiting forever.
        transport.flush();
        mark_terminated(r);
      } catch (const RankCrashed&) {
        // Scheduled death, already marked dead in tick(); in-flight
        // (held) packets strand with the crash, reported as discarded.
        if (faulty) faulty->discard_held();
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        mark_terminated(r);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

void World::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  link_metrics_.clear();
  wm_ = WorldMetrics{};
  if (registry == nullptr) return;
  wm_.messages = &registry->counter("mp.messages");
  wm_.bytes = &registry->counter("mp.bytes");
  wm_.dropped = &registry->counter("mp.dropped");
  wm_.duplicated = &registry->counter("mp.duplicated");
  wm_.delayed = &registry->counter("mp.delayed");
  wm_.sends_to_dead = &registry->counter("mp.sends_to_dead");
  wm_.recv_timeouts = &registry->counter("mp.recv_timeouts");
  wm_.collective_rounds = &registry->counter("mp.collective_rounds");
  link_metrics_.resize(static_cast<std::size_t>(size_) *
                       static_cast<std::size_t>(size_));
  for (int s = 0; s < size_; ++s) {
    for (int d = 0; d < size_; ++d) {
      const std::string prefix = "mp.link." + std::to_string(s) + "->" +
                                 std::to_string(d) + ".";
      LinkMetrics& lm =
          link_metrics_[static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(size_) +
                        static_cast<std::size_t>(d)];
      lm.messages = &registry->counter(prefix + "messages");
      lm.bytes = &registry->counter(prefix + "bytes");
    }
  }
}

FaultStats World::fault_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bool World::rank_dead(int rank) const {
  DLB_REQUIRE(rank >= 0 && rank < size_, "invalid rank");
  return status(rank) == RankStatus::Dead;
}

World::RankStatus World::status(int rank) const {
  return static_cast<RankStatus>(
      statuses_[static_cast<std::size_t>(rank)].load(
          std::memory_order_acquire));
}

void World::post(int dest, MpMessage message) {
  // Delivered-traffic accounting per ordered link (dropped messages
  // never reach here; duplicates count each copy).
  if (metrics_ != nullptr && message.source >= 0) {
    const std::uint64_t nbytes =
        message.payload.size() * sizeof(std::int64_t);
    const LinkMetrics& lm =
        link_metrics_[static_cast<std::size_t>(message.source) *
                          static_cast<std::size_t>(size_) +
                      static_cast<std::size_t>(dest)];
    lm.messages->add(1);
    lm.bytes->add(nbytes);
    wm_.messages->add(1);
    wm_.bytes->add(nbytes);
  }
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(box.mutex);
    box.messages.push_back(std::move(message));
  }
  box.cv.notify_all();
}

void World::wake_all_mailboxes() {
  for (auto& box : mailboxes_) {
    { std::lock_guard<std::mutex> lock(box->mutex); }
    box->cv.notify_all();
  }
}

void World::mark_dead(int rank, std::uint32_t step) {
  (void)step;
  const std::int64_t drift =
      journal_.on_crash(static_cast<std::uint32_t>(rank));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.ranks_dead;
    stats_.declared_lost_load += drift;
  }
  {
    std::lock_guard<std::mutex> lock(collective_.mutex);
    statuses_[static_cast<std::size_t>(rank)].store(
        static_cast<std::uint8_t>(RankStatus::Dead),
        std::memory_order_release);
    // Our absence may be exactly what an open round was waiting for.
    maybe_complete_round_locked();
  }
  collective_.cv.notify_all();
  wake_all_mailboxes();
}

void World::mark_terminated(int rank) {
  {
    std::lock_guard<std::mutex> lock(collective_.mutex);
    statuses_[static_cast<std::size_t>(rank)].store(
        static_cast<std::uint8_t>(RankStatus::Terminated),
        std::memory_order_release);
  }
  collective_.cv.notify_all();
  wake_all_mailboxes();
}

namespace {
bool matches(const MpMessage& msg, int source, int tag) {
  return (source < 0 || msg.source == source) &&
         (tag < 0 || msg.tag == tag);
}

std::optional<MpMessage> take_match(RingQueue<MpMessage>& messages,
                                    int source, int tag) {
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (matches(messages[i], source, tag)) {
      std::optional<MpMessage> out = std::move(messages[i]);
      messages.erase(i);
      return out;
    }
  }
  return std::nullopt;
}
}  // namespace

bool World::can_still_arrive(int receiver, int source) const {
  if (source >= 0) return status(source) == RankStatus::Alive;
  for (int r = 0; r < size_; ++r) {
    if (r == receiver) continue;
    if (status(r) == RankStatus::Alive) return true;
  }
  return false;
}

MpMessage World::wait_recv(int rank, int source, int tag) {
  DLB_REQUIRE(source < size_, "invalid source");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  while (true) {
    if (auto out = take_match(box.messages, source, tag))
      return std::move(*out);
    DLB_ENSURE(can_still_arrive(rank, source),
               "recv would block forever: source terminated or crashed "
               "with no matching message queued");
    box.cv.wait(lock);
  }
}

std::optional<MpMessage> World::poll_recv(int rank, int source, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::lock_guard<std::mutex> lock(box.mutex);
  return take_match(box.messages, source, tag);
}

std::optional<MpMessage> World::timed_recv(
    int rank, int source, int tag,
    std::chrono::steady_clock::time_point deadline) {
  DLB_REQUIRE(source < size_, "invalid source");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(rank)];
  std::unique_lock<std::mutex> lock(box.mutex);
  while (true) {
    if (auto out = take_match(box.messages, source, tag)) return out;
    if (!can_still_arrive(rank, source)) return std::nullopt;
    if (box.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      auto out = take_match(box.messages, source, tag);
      if (!out.has_value() && metrics_ != nullptr)
        wm_.recv_timeouts->add(1);
      return out;
    }
  }
}

int World::live_count_locked() const {
  int live = 0;
  for (int r = 0; r < size_; ++r)
    if (status(r) == RankStatus::Alive) ++live;
  return live;
}

void World::maybe_complete_round_locked() {
  CollectiveState& c = collective_;
  if (c.arrived == 0) return;
  // Only *crashed* (Dead) ranks may be absent from a closing round --
  // that is the tolerated, degraded case.  A rank that *terminated*
  // (ran off the end of its program) signals a mismatched SPMD program:
  // leave the round open so every waiter hits the mismatch error
  // instead of silently closing a degraded round over its absence.
  for (int r = 0; r < size_; ++r)
    if (status(r) == RankStatus::Terminated) return;
  if (c.arrived < live_count_locked()) return;
  // Everyone who can still arrive has: snapshot, mark dead slots, turn
  // the round over.  (Arrivers are necessarily alive — ranks only die at
  // their own tick(), never inside a collective.)
  c.snapshot = c.slots;
  c.degraded_snapshot = false;
  for (int r = 0; r < size_; ++r) {
    const bool alive = status(r) == RankStatus::Alive;
    c.alive_snapshot[static_cast<std::size_t>(r)] = alive ? 1 : 0;
    if (!alive) {
      c.snapshot[static_cast<std::size_t>(r)] = 0;
      c.degraded_snapshot = true;
    }
  }
  c.departing = c.arrived;
  c.arrived = 0;
  ++c.generation;
  if (metrics_ != nullptr) wm_.collective_rounds->add(1);
  c.cv.notify_all();
}

GatherResult World::gather_all(int rank, std::int64_t value) {
  GatherResult result;
  gather_all_into(rank, value, result);
  return result;
}

void World::gather_all_into(int rank, std::int64_t value, GatherResult& out) {
  CollectiveState& c = collective_;
  std::unique_lock<std::mutex> lock(c.mutex);
  const auto mismatched_peer = [&] {
    for (int r = 0; r < size_; ++r)
      if (r != rank && status(r) == RankStatus::Terminated) return true;
    return false;
  };
  // Entry gate: a new round may not start while the previous round's
  // participants are still reading its snapshot.
  c.cv.wait(lock, [&] { return c.departing == 0 || mismatched_peer(); });
  DLB_ENSURE(!mismatched_peer(),
             "collective entered after a peer terminated: mismatched "
             "SPMD program (this used to deadlock)");
  const std::uint64_t generation = c.generation;
  c.slots[static_cast<std::size_t>(rank)] = value;
  ++c.arrived;
  maybe_complete_round_locked();
  while (c.generation == generation) {
    // A peer's death may have made the open round completable; any
    // waiter may promote itself to completer.  Check completion before
    // the mismatch check: a peer terminating right after this round
    // closed must not read as abandonment.
    maybe_complete_round_locked();
    if (c.generation != generation) break;
    DLB_ENSURE(!mismatched_peer(),
               "collective abandoned: a peer terminated mid-round "
               "(this used to deadlock)");
    c.cv.wait(lock);
  }
  // Copy-assign into the caller's buffers: same world size every round,
  // so after the first round this reuses their capacity.
  out.values = c.snapshot;
  out.alive = c.alive_snapshot;
  out.degraded = c.degraded_snapshot;
  if (--c.departing == 0) c.cv.notify_all();
}

void LocalTransport::send(int dest, int tag, const std::int64_t* words,
                          std::size_t count) {
  MpMessage msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload.assign(words, count);
  world_->post(dest, std::move(msg));
}

MpMessage LocalTransport::recv(int source, int tag) {
  return world_->wait_recv(rank_, source, tag);
}

std::optional<MpMessage> LocalTransport::recv_until(
    int source, int tag, std::chrono::steady_clock::time_point deadline) {
  return world_->timed_recv(rank_, source, tag, deadline);
}

std::optional<MpMessage> LocalTransport::try_recv(int source, int tag) {
  return world_->poll_recv(rank_, source, tag);
}

PeerState LocalTransport::peer_state(int rank) const {
  // RankStatus and PeerState agree on values by construction.
  return static_cast<PeerState>(world_->status(rank));
}

}  // namespace dlb
