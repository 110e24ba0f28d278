// Asynchronous discrete-event simulation of the balancing algorithm with
// explicit message latencies: the virtual-clock driver of the balance
// transaction (core/txn.hpp describes the protocol).
//
// §2 of the paper assumes a balancing operation completes in constant
// time independent of distance and data volume.  The synchronous System
// implements that model; AsyncSystem removes the assumption: each
// transaction message travels for `hop_latency x distance(u, v)` time
// units on a given topology, while application demand keeps arriving.
// This quantifies how much of the paper's guarantee survives when the
// O(1) abstraction is false — the degradation benches
// (bench/ablation_latency) sweep the hop latency — and exercises the
// refusal-based deadlock-freedom argument under a precise event order.
//
// Determinism: events are ordered by time, then messages before
// application events, then sequence number; all randomness flows from
// one seeded generator.  At hop latency 0 a transaction therefore
// completes before the next demand runs, as §2's operations do.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "core/txn.hpp"
#include "net/topology.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"

namespace dlb {

struct AsyncConfig {
  double f = 1.1;
  std::uint32_t delta = 1;
  /// Message latency per topology hop, in units of one application time
  /// step.  0 models the paper's instantaneous operations.
  double hop_latency = 0.0;
  /// Locality: when > 0, partners are drawn from the topology ball of
  /// this radius around the initiator instead of the whole network —
  /// with latency enabled this is the natural pairing (short messages).
  unsigned partner_radius = 0;
  std::uint64_t seed = 1;
};

struct AsyncStats {
  std::uint64_t balance_ops = 0;     // completed transactions
  std::uint64_t refused_txns = 0;    // initiations every partner refused
  std::uint64_t refusals = 0;
  std::uint64_t messages = 0;
  std::uint64_t packets_moved = 0;
  std::uint64_t consume_failures = 0;
  std::uint64_t deferred_events = 0;  // app events delayed by a lock
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
};

class AsyncSystem final : private TxnHost {
 public:
  /// `topology` provides distances for message latency; must outlive the
  /// system.
  AsyncSystem(const Topology& topology, AsyncConfig config);

  /// Replays the trace: processor p's step-t demand enters the event
  /// queue at time t.  Runs until all events (including in-flight
  /// transactions) have drained.  May be called once per instance.
  void run(const Trace& trace);

  const std::vector<std::int64_t>& loads() const { return loads_; }
  const AsyncStats& stats() const { return stats_; }
  /// Simulated time when the last event executed.
  double end_time() const { return now_; }

  /// Per-integer-time-step load snapshots (index t = loads after all
  /// events at time <= t executed); filled by run().
  const std::vector<std::vector<std::int64_t>>& snapshots() const {
    return snapshots_;
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    // Either an application event (app == true) or a message delivery.
    bool app;
    ProcId proc;      // app target or message destination
    std::uint32_t t;  // app step
    TxnMsg msg;       // valid when !app
  };

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.app != b.app) return a.app;
      return a.seq > b.seq;
    }
  };

  void open(std::uint32_t self, std::uint64_t txn,
            std::vector<std::uint32_t>& partners) override;
  void send(std::uint32_t to, const TxnMsg& msg) override;
  const std::vector<std::int64_t>& gather_loads();

  const Topology& topology_;
  AsyncConfig config_;
  Rng rng_;
  std::vector<TxnEndpoint> procs_;
  std::vector<std::uint32_t> ball_;  // radius draw scratch
  std::vector<std::int64_t> loads_;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  AsyncStats stats_;
  std::vector<std::vector<std::int64_t>> snapshots_;
  bool used_ = false;
};

}  // namespace dlb
