// Threaded message-passing driver of the balance transaction
// (core/txn.hpp describes the protocol and its fault rules).
//
// The sequential System is the measurement instrument for the paper's
// figures; ThreadedSystem demonstrates that the same algorithmic principle
// runs as a real concurrent system: one thread per processor, no shared
// load state, all coordination by messages — the structure a
// distributed-memory implementation ([7]'s transputer networks) would
// have, compressed onto one machine.  It runs on an mp::World it owns:
// each processor is one World::launch body that drives its TxnEndpoint
// over Comm (LocalTransport), and blocks inside a transaction until the
// endpoint is Idle again, so application demand never reaches a busy
// endpoint.
//
// Failure tolerance (config.faults, a mp/fault.hpp FaultPlan installed
// on the World): the FaultyTransport decorator drops, duplicates and
// delays messages, Comm::tick() kills processors on the crash schedule,
// and every wait inside a transaction gets a deadline whose expiry is
// the endpoint's timeout.  Every transaction message the decorator does
// not deliver is reported back (World::discarded()), and a lost
// Assign's delta is declared lost, so total load is conserved modulo
// the declared-lost ledger:
//   sum(final) == generated - consumed - lost_load
// A processor killed by the crash schedule stops at a step boundary; its
// load is recovered from its last World journal checkpoint (the drift is
// declared lost), survivors blacklist it from future partner draws
// (redrawing uniformly over the live processors), and invites addressed
// to it simply time out.  Without a plan the transaction waits block.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/txn.hpp"
#include "mp/communicator.hpp"
#include "mp/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/trace.hpp"

namespace dlb {

struct ThreadedConfig {
  double f = 1.1;
  std::uint32_t delta = 1;
  std::uint64_t seed = 42;
  /// Fault schedule; an inert plan (the default) disables every fault
  /// path and reproduces the historical behaviour exactly.
  FaultPlan faults;
  /// Deadline for each in-transaction wait when faults are enabled (and
  /// the re-check period of the end-of-run waits).
  std::chrono::milliseconds txn_timeout{25};
};

struct ThreadedStats {
  std::uint64_t balance_ops = 0;
  std::uint64_t refusals = 0;
  std::uint64_t messages = 0;
  std::uint64_t consume_failures = 0;
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  // Robustness counters (all zero in fault-free runs).
  std::uint64_t rollbacks = 0;     // partner rollbacks (missing Assign)
  std::uint64_t timeouts = 0;      // expired transaction waits
  std::uint64_t lost_packets = 0;  // undelivered + stray-Assign messages
  std::uint32_t ranks_dead = 0;    // processors killed by the schedule
  /// Net load in dropped/discarded Assigns plus crash drift (signed:
  /// losing a negative delta *adds* load).  Conservation holds as
  /// sum(final_loads) == generated - consumed - lost_load.
  std::int64_t lost_load = 0;
};

class ThreadedSystem {
 public:
  ThreadedSystem(std::uint32_t processors, ThreadedConfig config);
  ~ThreadedSystem();

  ThreadedSystem(const ThreadedSystem&) = delete;
  ThreadedSystem& operator=(const ThreadedSystem&) = delete;

  /// Replays the trace concurrently (one World rank per processor) and
  /// blocks until every rank has finished and all transactions have
  /// drained.
  void run(const Trace& trace);

  /// Operational metrics: run() publishes the aggregated ThreadedStats
  /// as threaded.* counters (and threaded.lost_load as a gauge).
  /// Optional; not owned.
  void attach_metrics(obs::MetricsRegistry* registry) {
    metrics_ = registry;
  }

  /// Structured trace: per-processor balance-transaction spans plus
  /// timeout/abort/crash instants, one track per processor thread.
  /// Optional; not owned.
  void attach_trace(obs::TraceBuffer* trace) { trace_ = trace; }

  /// Final per-processor loads (valid after run()); a crashed
  /// processor's entry is its journal-recovered load.
  const std::vector<std::int64_t>& final_loads() const { return final_loads_; }
  /// Aggregated statistics over all processor threads.
  const ThreadedStats& stats() const { return stats_; }
  /// Crash journal of the last run (valid after run()).
  const LoadJournal& journal() const { return world_.journal(); }
  /// True when processor `p` was killed during the last run.
  bool processor_dead(std::uint32_t p) const;

 private:
  class Worker;

  std::uint32_t processors_;
  ThreadedConfig config_;
  World world_;
  std::vector<std::int64_t> final_loads_;
  ThreadedStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
  // Resolved once per run(); shared by all workers (record is atomic).
  obs::Histogram* txn_hist_ = nullptr;
};

}  // namespace dlb
