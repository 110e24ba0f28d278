// A miniature message-passing interface over threads.
//
// The paper's implementations ([7, 8]) ran on transputer networks
// programmed in SPMD message-passing style.  No MPI is assumed to exist
// in this environment, so this module provides the minimal substrate the
// algorithm's distributed implementation needs: ranked processes,
// tagged blocking/non-blocking point-to-point messages, and the
// collectives used for measurement (barrier, broadcast, allreduce,
// gather).  Everything runs in one OS process with one thread per rank;
// the API mirrors the message-passing model so the SPMD balancer in
// examples/spmd_balancer.cpp reads like its historical counterpart.
//
// Fault model (mp/fault.hpp): a seeded FaultPlan may be installed on the
// World before launch.  Point-to-point traffic is then subject to
// per-link message drop/duplication/delay, and every rank to the crash
// schedule.  Collectives are crash-aware — they complete over the live
// ranks and report degradation — but their control plane is modeled as
// reliable (real MPI collectives sit on retransmitting transports; the
// interesting failure is a *participant* dying, not a lost token):
//   - Comm::tick() advances the rank's step clock and throws RankCrashed
//     at the scheduled step; World::launch absorbs the throw and marks
//     the rank dead (not an error).
//   - recv_for() / recv_until() are the deadline-based receives for
//     protocols that must survive a silent partner.
//   - *_checked collectives complete without dead ranks and report a
//     `degraded` flag plus a per-rank alive mask instead of hanging.
//   - Comm::journal() feeds the crash-recovery LoadJournal so a dead
//     rank's load is recovered from its last checkpoint boundary.
//   - World::discarded() lists the application messages the injector
//     did not deliver, so a protocol can declare the load they carried
//     lost.
// Without a plan (or with an inert one) every path is byte-identical to
// the fault-free implementation.
//
// Liveness contract: a blocking recv() whose source can no longer send
// (terminated or crashed peer, no matching message) and a collective
// entered after any peer *terminated* raise contract_error instead of
// blocking forever — a mismatched SPMD program is a bug, not a hang.
//
// Usage:
//   World world(8);                     // 8 ranks
//   world.launch([](Comm& comm) {       // SPMD: every rank runs this
//     if (comm.rank() == 0) comm.send(1, /*tag=*/0, {42});
//     if (comm.rank() == 1) auto msg = comm.recv(0, 0);
//     comm.barrier();
//     std::int64_t total = comm.allreduce_sum(comm.rank());
//   });
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/checkpoint.hpp"
#include "mp/fault.hpp"
#include "mp/message.hpp"
#include "mp/payload.hpp"
#include "mp/transport.hpp"
#include "obs/metrics.hpp"
#include "support/ring_queue.hpp"

namespace dlb {

/// Control-flow signal thrown by Comm::tick() when the fault plan kills
/// the rank.  Deliberately NOT derived from std::exception: application
/// catch(std::exception&) blocks must not swallow a scheduled crash.
struct RankCrashed {
  int rank = -1;
  std::uint32_t step = 0;
};

/// Result of a crash-aware collective.
struct GatherResult {
  std::vector<std::int64_t> values;  // dead ranks contribute 0
  std::vector<std::uint8_t> alive;   // liveness mask at round completion
  bool degraded = false;             // true iff any rank was dead

  int live_count() const {
    int n = 0;
    for (std::uint8_t a : alive) n += a;
    return n;
  }
};

class World;

/// Per-rank communicator handle; valid only inside World::launch.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Sends `words` to `dest` with `tag`; never blocks (buffered).  The
  /// payload is built in place, inline up to MpPayload::kInlineWords
  /// words, so protocol sends never touch the allocator.
  void send(int dest, int tag, std::initializer_list<std::int64_t> words);
  /// Same, from an array (for payloads whose width is only known at
  /// runtime).
  void send(int dest, int tag, const std::int64_t* words, std::size_t count);

  /// Receives the oldest matching message; blocks until one arrives.
  /// source == -1 matches any source; tag == -1 matches any tag.
  /// Raises contract_error when no matching message can ever arrive
  /// (the source — or, for any-source, every peer — has terminated or
  /// crashed and nothing matching is queued).
  MpMessage recv(int source = -1, int tag = -1);

  /// Non-blocking probe-and-receive; nullopt when nothing matches.
  std::optional<MpMessage> try_recv(int source = -1, int tag = -1);

  /// Deadline-based receive: waits up to `timeout` for a matching
  /// message.  Returns nullopt on timeout, and returns nullopt early
  /// when the source is dead/terminated with nothing matching queued.
  std::optional<MpMessage> recv_for(int source, int tag,
                                    std::chrono::milliseconds timeout);
  /// Same, against a monotonic deadline (one budget over many calls).
  std::optional<MpMessage> recv_until(
      int source, int tag, std::chrono::steady_clock::time_point deadline);

  /// Releases the messages the fault decorator holds back (delayed
  /// ones); launch() does this when the body returns.
  void flush();

  /// Collective: all live ranks must call; returns when everyone arrived.
  void barrier();
  /// Crash-aware barrier: returns true when the round was degraded
  /// (some rank dead) instead of hanging on the dead rank.
  bool barrier_checked();

  /// Collective: rank `root`'s value is returned on every rank.
  /// (0 when `root` is dead.)
  std::int64_t broadcast(std::int64_t value, int root);

  /// Collectives over one int64 per rank (live ranks only).
  std::int64_t allreduce_sum(std::int64_t value);
  std::int64_t allreduce_min(std::int64_t value);
  std::int64_t allreduce_max(std::int64_t value);

  /// Collective: every rank receives the full vector of contributions,
  /// indexed by rank.
  std::vector<std::int64_t> allgather(std::int64_t value);
  /// Crash-aware allgather: values plus alive mask plus degraded flag.
  GatherResult allgather_checked(std::int64_t value);
  /// Allocation-free variant for per-step loops: fills `out`, reusing
  /// its capacity (the first round per `out` sizes it; later rounds are
  /// pure copies).
  void allgather_checked(std::int64_t value, GatherResult& out);

  /// Advances this rank's step clock; throws RankCrashed when the fault
  /// plan schedules this rank's death at the current step.
  void tick();
  std::uint32_t step() const { return step_; }

  /// Records this rank's (load, generated, consumed) into the crash
  /// journal for the current step (see LoadJournal).
  void journal(std::int64_t load, std::int64_t generated = 0,
               std::int64_t consumed = 0);

  /// Protocol-level loss accounting: adds `amount` to the world's
  /// declared-lost ledger (e.g. a transfer the receiver timed out on).
  void declare_lost(std::int64_t amount);

  /// Current liveness of a rank (true until it crashes or terminates).
  bool rank_alive(int rank) const;

 private:
  friend class World;
  Comm(World& world, int rank, Transport& transport)
      : world_(&world), transport_(&transport), rank_(rank) {}
  World* world_;
  Transport* transport_;  // p2p seam; collectives/journal stay on world_
  int rank_;
  std::uint32_t step_ = 0;
  // Collective scratch: barrier/broadcast/allreduce land each round's
  // snapshot here instead of a fresh GatherResult (warm after round 1).
  GatherResult gather_scratch_;
};

/// The SPMD "machine": owns the mailboxes and collective state.
class World {
 public:
  explicit World(int size);

  int size() const { return size_; }

  /// Installs the fault schedule applied by the next launch().  Must not
  /// be called while a launch is running.  An inert (default) plan
  /// leaves behaviour byte-identical to the fault-free implementation.
  void set_fault_plan(FaultPlan plan);
  const FaultPlan& fault_plan() const { return plan_; }

  /// Runs `body` on every rank concurrently (one thread per rank) and
  /// joins.  RankCrashed escapes are absorbed (the rank is marked dead);
  /// real exceptions thrown by any rank are rethrown (the first one)
  /// after all threads finish.  May be called repeatedly; fault/liveness
  /// state is re-armed per launch.
  void launch(const std::function<void(Comm&)>& body);

  /// Operational metrics: per-link delivered message/byte counters
  /// (mp.link.<s>-><d>.*) plus aggregate traffic, fault and timeout
  /// counters (mp.*).  Resolves every instrument up front, so the send
  /// path pays only relaxed atomic adds.  Must not be called while a
  /// launch is running.  May be null (detach); not owned.
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Fault accounting of the most recent launch().
  FaultStats fault_stats() const;
  /// Crash journal of the most recent launch() (valid after it returns).
  const LoadJournal& journal() const { return journal_; }
  /// Application messages the fault decorator did not deliver in the
  /// most recent launch(), each once (FaultSink::discarded).
  const std::vector<MpMessage>& discarded() const { return discarded_; }
  /// True when `rank` crashed during the most recent launch().
  bool rank_dead(int rank) const;

 private:
  friend class Comm;

  enum class RankStatus : std::uint8_t { Alive = 0, Dead = 1, Terminated = 2 };

  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    RingQueue<MpMessage> messages;
  };

  struct CollectiveState {
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0;
    int departing = 0;
    std::uint64_t generation = 0;
    std::vector<std::int64_t> slots;
    std::vector<std::int64_t> snapshot;
    std::vector<std::uint8_t> alive_snapshot;
    bool degraded_snapshot = false;
  };

  friend class LocalTransport;

  void post(int dest, MpMessage message);
  MpMessage wait_recv(int rank, int source, int tag);
  std::optional<MpMessage> poll_recv(int rank, int source, int tag);
  std::optional<MpMessage> timed_recv(
      int rank, int source, int tag,
      std::chrono::steady_clock::time_point deadline);
  GatherResult gather_all(int rank, std::int64_t value);
  void gather_all_into(int rank, std::int64_t value, GatherResult& out);

  void arm_launch();
  void mark_dead(int rank, std::uint32_t step);
  void mark_terminated(int rank);
  void wake_all_mailboxes();
  RankStatus status(int rank) const;
  int live_count_locked() const;      // requires collective_.mutex
  void maybe_complete_round_locked(); // requires collective_.mutex
  /// True when a matching message from `source` can still be produced.
  bool can_still_arrive(int receiver, int source) const;

  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  CollectiveState collective_;

  FaultPlan plan_;
  bool faults_armed_ = false;
  std::unique_ptr<std::atomic<std::uint8_t>[]> statuses_;
  LoadJournal journal_;

  // Counters and the discard report; guarded by stats_mutex_ (fault
  // paths only, never hot).
  mutable std::mutex stats_mutex_;
  FaultStats stats_;
  std::vector<MpMessage> discarded_;

  // Cached instrument handles (valid iff metrics_ != null).  Per-link
  // cells are row-major by source, like links_.
  struct LinkMetrics {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
  };
  struct WorldMetrics {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* duplicated = nullptr;
    obs::Counter* delayed = nullptr;
    obs::Counter* sends_to_dead = nullptr;
    obs::Counter* recv_timeouts = nullptr;
    obs::Counter* collective_rounds = nullptr;
  };
  obs::MetricsRegistry* metrics_ = nullptr;
  WorldMetrics wm_;
  std::vector<LinkMetrics> link_metrics_;  // size_ * size_
};

/// The in-process backend of the transport seam: one thread per rank,
/// delivery straight into the destination's mailbox.  One instance per
/// rank per launch (constructed by World::launch); when a fault plan is
/// armed the FaultyTransport decorator wraps it, reproducing the exact
/// pre-seam drop/dup/delay semantics.
class LocalTransport : public Transport {
 public:
  LocalTransport(World& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return world_->size(); }
  void send(int dest, int tag, const std::int64_t* words,
            std::size_t count) override;
  MpMessage recv(int source, int tag) override;
  std::optional<MpMessage> recv_until(
      int source, int tag,
      std::chrono::steady_clock::time_point deadline) override;
  std::optional<MpMessage> try_recv(int source, int tag) override;
  PeerState peer_state(int rank) const override;
  /// Termination is announced by World::launch (mark_terminated), not
  /// here — the mailboxes belong to the World and outlive the launch.
  void close() override {}

 private:
  World* world_;
  int rank_;
};

}  // namespace dlb
