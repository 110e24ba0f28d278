#include "core/async_system.hpp"

#include "support/check.hpp"

namespace dlb {

AsyncSystem::AsyncSystem(const Topology& topology, AsyncConfig config)
    : topology_(topology),
      config_(config),
      rng_(config.seed),
      loads_(topology.size(), 0) {
  DLB_REQUIRE(topology_.size() >= 2, "async system needs >= 2 processors");
  DLB_REQUIRE(config_.f > 1.0, "async runtime requires f > 1");
  DLB_REQUIRE(config_.delta >= 1 && config_.delta < topology_.size(),
              "delta out of range");
  DLB_REQUIRE(config_.hop_latency >= 0.0, "latency cannot be negative");
  procs_.reserve(topology_.size());
  for (ProcId p = 0; p < topology_.size(); ++p)
    procs_.emplace_back(p, config_.f, config_.delta, false);
}

void AsyncSystem::send(std::uint32_t to, const TxnMsg& msg) {
  const double latency = config_.hop_latency *
                         static_cast<double>(topology_.distance(msg.from, to));
  queue_.push(Event{now_ + latency, ++seq_, false, to, 0, msg});
}

void AsyncSystem::open(std::uint32_t self, std::uint64_t txn,
                       std::vector<std::uint32_t>& partners) {
  (void)txn;
  if (config_.partner_radius == 0) {
    rng_.sample_distinct_into(partners, topology_.size(), config_.delta, self);
    return;
  }
  ball_.clear();
  for (ProcId v = 0; v < topology_.size(); ++v) {
    if (v != self && topology_.distance(self, v) <= config_.partner_radius)
      ball_.push_back(v);
  }
  DLB_ENSURE(!ball_.empty(), "neighborhood contains no candidates");
  if (ball_.size() <= config_.delta) {
    partners = ball_;
    return;
  }
  const auto size = static_cast<std::uint32_t>(ball_.size());
  rng_.sample_distinct_into(partners, size, config_.delta, size + 1);
  for (std::uint32_t& k : partners) k = ball_[k];
}

const std::vector<std::int64_t>& AsyncSystem::gather_loads() {
  for (ProcId p = 0; p < topology_.size(); ++p) loads_[p] = procs_[p].load();
  return loads_;
}

void AsyncSystem::run(const Trace& trace) {
  DLB_REQUIRE(!used_, "AsyncSystem::run may only be called once");
  used_ = true;
  DLB_REQUIRE(trace.processors() == topology_.size(),
              "trace size must match the topology");

  for (std::uint32_t t = 0; t < trace.horizon(); ++t) {
    for (ProcId p = 0; p < trace.processors(); ++p) {
      const WorkEvent we = trace.at(p, t);
      if (!we.generate && !we.consume) continue;
      queue_.push(Event{static_cast<double>(t), ++seq_, true, p, t, {}});
    }
  }

  std::uint32_t next_snapshot = 0;
  snapshots_.reserve(trace.horizon());
  while (!queue_.empty()) {
    const Event ev = queue_.top();
    while (next_snapshot < trace.horizon() &&
           ev.time > static_cast<double>(next_snapshot)) {
      snapshots_.push_back(gather_loads());
      ++next_snapshot;
    }
    queue_.pop();
    now_ = ev.time;
    if (ev.app) {
      procs_[ev.proc].apply(trace.at(ev.proc, ev.t), *this);
    } else {
      procs_[ev.proc].deliver(ev.msg, *this);
    }
  }
  gather_loads();
  while (next_snapshot < trace.horizon()) {
    snapshots_.push_back(loads_);
    ++next_snapshot;
  }

  // Every transaction must have drained (an idle endpoint holds no
  // deferred demand).
  for (const TxnEndpoint& proc : procs_) {
    DLB_ENSURE(proc.idle(), "transaction still open after drain");
    const TxnCounters& c = proc.counters();
    stats_.balance_ops += c.balance_ops;
    stats_.refused_txns += c.refused_txns;
    stats_.refusals += c.refusals;
    stats_.messages += c.messages;
    stats_.packets_moved += c.packets_moved;
    stats_.consume_failures += c.consume_failures;
    stats_.deferred_events += c.deferred_events;
    stats_.generated += c.generated;
    stats_.consumed += c.consumed;
  }
}

}  // namespace dlb
