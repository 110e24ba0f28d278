// Deterministic fault-schedule explorer over the transaction core
// (core/txn.hpp).  Three or four endpoints are driven by a seeded
// scheduler that picks one action at a time: deliver an in-flight
// message, drop one, duplicate one, time out a waiting endpoint, or hand
// an idle endpoint its next application event.  With the fault
// bookkeeping on, any in-flight message may be delivered next; with it
// off, drops, duplicates and timeouts are switched off and delivery
// stays FIFO per link, which is what both fault-free drivers guarantee.
// No threads and no clocks: a failing schedule replays from its seed.
#include "core/txn.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace dlb {
namespace {

constexpr double kF = 1.5;
constexpr std::uint32_t kSteps = 30;  // application events per endpoint
constexpr std::size_t kActionBound = 20000;

class Explorer final : public TxnHost {
 public:
  Explorer(std::uint32_t n, std::uint32_t delta, bool faults,
           std::uint64_t seed)
      : n_(n), delta_(delta), faults_(faults), rng_(seed) {
    for (std::uint32_t p = 0; p < n_; ++p) {
      endpoints_.emplace_back(p, kF, delta_, faults_);
      std::vector<WorkEvent> events(kSteps);
      for (WorkEvent& ev : events) {
        ev.generate = rng_.bernoulli(0.6);
        ev.consume = rng_.bernoulli(0.4);
      }
      demand_.push_back(std::move(events));
    }
    next_.assign(n_, 0);
  }

  /// Runs the demand to its end, then keeps acting until nothing is in
  /// flight and every endpoint is idle.  Returns the drain's length, or
  /// kActionBound + 1 when either phase overruns the bound.
  std::size_t run() {
    std::size_t actions = 0;
    while (demand_left() && actions++ <= kActionBound) act();
    std::size_t drain = 0;
    while (busy() && drain++ <= kActionBound) act();
    return actions > kActionBound ? kActionBound + 1 : drain;
  }

  /// sum(loads) - (generated - consumed - declared loss); 0 when load
  /// is conserved.
  std::int64_t residual() const {
    std::int64_t residual = dropped_load_;
    for (const TxnEndpoint& ep : endpoints_) {
      const TxnCounters& c = ep.counters();
      residual += ep.load() - static_cast<std::int64_t>(c.generated) +
                  static_cast<std::int64_t>(c.consumed) + c.lost_load;
    }
    return residual;
  }

  TxnCounters totals() const {
    TxnCounters t;
    for (const TxnEndpoint& ep : endpoints_) {
      const TxnCounters& c = ep.counters();
      t.balance_ops += c.balance_ops;
      t.rollbacks += c.rollbacks;
      t.refusals += c.refusals;
      t.lost_packets += c.lost_packets;
      t.lost_load += c.lost_load;
    }
    return t;
  }

  std::uint64_t drops() const { return drops_; }
  const std::vector<TxnEndpoint>& endpoints() const { return endpoints_; }

 private:
  struct InFlight {
    std::uint32_t to;
    TxnMsg msg;
    std::size_t send;  // index into sends_; duplicates share it
  };
  // One send's fate: copies in flight, and whether any arrived.  Its
  // Assign delta is lost iff the last copy is dropped before any arrives.
  struct Send {
    std::uint32_t copies = 1;
    bool arrived = false;
  };
  enum Action { Deliver, Drop, Duplicate, Timeout, Apply, kActions };

  void open(std::uint32_t self, std::uint64_t txn,
            std::vector<std::uint32_t>& partners) override {
    (void)txn;
    rng_.sample_distinct_into(partners, n_, delta_, self);
  }

  void send(std::uint32_t to, const TxnMsg& msg) override {
    flight_.push_back(InFlight{to, msg, sends_.size()});
    sends_.emplace_back();
  }

  bool demand_left() const {
    for (std::uint32_t p = 0; p < n_; ++p)
      if (next_[p] < kSteps) return true;
    return false;
  }

  bool busy() const {
    if (!flight_.empty()) return true;
    for (const TxnEndpoint& ep : endpoints_)
      if (!ep.idle()) return true;
    return false;
  }

  std::uint32_t pick(const std::vector<std::uint32_t>& candidates) {
    return candidates[rng_.below(candidates.size())];
  }

  void act() {
    std::vector<std::uint32_t> waiting;  // endpoints inside a transaction
    std::vector<std::uint32_t> ready;    // idle, with demand left
    for (std::uint32_t p = 0; p < n_; ++p) {
      if (!endpoints_[p].idle()) waiting.push_back(p);
      else if (next_[p] < kSteps) ready.push_back(p);
    }
    const bool any_flight = !flight_.empty();
    const std::uint64_t weight[kActions] = {
        any_flight ? 6u : 0u,
        faults_ && any_flight ? 1u : 0u,
        faults_ && any_flight ? 1u : 0u,
        faults_ && !waiting.empty() ? 1u : 0u,
        !ready.empty() ? 3u : 0u,
    };
    std::uint64_t total = 0;
    for (std::uint64_t w : weight) total += w;
    ASSERT_GT(total, 0u) << "no action possible: the protocol is stuck";
    std::uint64_t roll = rng_.below(total);
    int action = 0;
    while (roll >= weight[action]) roll -= weight[action++];

    if (action == Timeout) {
      const std::uint32_t p = pick(waiting);
      const std::size_t first = flight_.size();
      endpoints_[p].timeout(*this);
      note_assigns(first);
      return;
    }
    if (action == Apply) {
      const std::uint32_t p = pick(ready);
      endpoints_[p].apply(demand_[p][next_[p]++], *this);
      return;
    }
    std::size_t i = rng_.below(flight_.size());
    if (!faults_) {
      // FIFO per link: deliver the oldest message on the drawn link.
      for (std::size_t j = 0; j < i; ++j)
        if (flight_[j].to == flight_[i].to &&
            flight_[j].msg.from == flight_[i].msg.from) {
          i = j;
          break;
        }
    }
    const InFlight m = flight_[i];
    Send& fate = sends_[m.send];
    if (action == Duplicate) {
      ++fate.copies;
      flight_.push_back(m);
      return;
    }
    flight_.erase(flight_.begin() + static_cast<std::ptrdiff_t>(i));
    --fate.copies;
    if (action == Drop) {
      ++drops_;
      if (m.msg.type == TxnMsg::Type::Assign && fate.copies == 0 &&
          !fate.arrived)
        dropped_load_ += m.msg.load;
      return;
    }
    fate.arrived = true;
    const TxnEndpoint& ep = endpoints_[m.to];
    const bool late_accept =
        m.msg.type == TxnMsg::Type::Accept &&
        (ep.mode() != TxnEndpoint::Mode::Initiating || ep.txn() != m.msg.txn);
    const std::size_t first = flight_.size();
    endpoints_[m.to].deliver(m.msg, *this);
    if (!late_accept) {
      note_assigns(first);
      return;
    }
    // Every late Accept gets its rollback Assign(0) and nothing else,
    // unless its sender already got the real Assign, which the rollback
    // could overtake.
    const bool assigned = real_assigns_.count({m.msg.txn, m.msg.from}) != 0;
    EXPECT_EQ(flight_.size() - first, assigned ? 0u : 1u);
    for (std::size_t j = first; j < flight_.size(); ++j) {
      const InFlight& r = flight_[j];
      EXPECT_TRUE(r.to == m.msg.from && r.msg.type == TxnMsg::Type::Assign &&
                  r.msg.txn == m.msg.txn && r.msg.load == 0);
    }
  }

  /// Records the Assigns sent from flight_[first] on as real (a closing
  /// transaction's) Assigns.
  void note_assigns(std::size_t first) {
    for (std::size_t j = first; j < flight_.size(); ++j)
      if (flight_[j].msg.type == TxnMsg::Type::Assign)
        real_assigns_.insert({flight_[j].msg.txn, flight_[j].to});
  }

  std::uint32_t n_;
  std::uint32_t delta_;
  bool faults_;
  Rng rng_;
  std::vector<TxnEndpoint> endpoints_;
  std::vector<std::vector<WorkEvent>> demand_;
  std::vector<std::uint32_t> next_;
  std::vector<InFlight> flight_;
  std::vector<Send> sends_;
  std::set<std::pair<std::uint64_t, std::uint32_t>> real_assigns_;
  std::uint64_t drops_ = 0;
  std::int64_t dropped_load_ = 0;
};

struct Sweep {
  std::uint64_t schedules = 0;
  std::uint64_t balance_ops = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t refusals = 0;
  std::uint64_t lost_packets = 0;
  std::uint64_t drops = 0;
};

Sweep explore(bool faults) {
  Sweep sweep;
  for (std::uint32_t n : {3u, 4u}) {
    for (std::uint32_t delta : {1u, 2u}) {
      for (std::uint64_t seed = 0; seed < 400; ++seed) {
        SCOPED_TRACE(testing::Message() << "n " << n << " delta " << delta
                                        << " seed " << seed);
        Explorer ex(n, delta, faults, seed * 7919 + n * 31 + delta);
        EXPECT_LE(ex.run(), kActionBound);
        EXPECT_EQ(ex.residual(), 0);
        for (const TxnEndpoint& ep : ex.endpoints()) {
          EXPECT_TRUE(ep.idle());
          EXPECT_GE(ep.load(), 0);
        }
        const TxnCounters t = ex.totals();
        if (!faults) {
          EXPECT_EQ(t.rollbacks, 0u);
          EXPECT_EQ(t.lost_packets, 0u);
          EXPECT_EQ(t.lost_load, 0);
        }
        ++sweep.schedules;
        sweep.balance_ops += t.balance_ops;
        sweep.rollbacks += t.rollbacks;
        sweep.refusals += t.refusals;
        sweep.lost_packets += t.lost_packets;
        sweep.drops += ex.drops();
      }
    }
  }
  return sweep;
}

// Without faults every unexpected message is a contract failure, so a
// stray path taken anywhere would throw out of the sweep.
TEST(TxnExplorer, FaultFreeSchedulesConserveExactly) {
  const Sweep sweep = explore(false);
  EXPECT_EQ(sweep.schedules, 1600u);
  EXPECT_GT(sweep.balance_ops, 0u);
  EXPECT_GT(sweep.refusals, 0u);
}

// Conservation modulo declared loss under drops, duplicates, arbitrary
// reordering and timeouts, and a rollback for every late Accept.  The
// sweep must also reach the paths it is meant to check: rollbacks and
// stray Assigns declared lost.
TEST(TxnExplorer, FaultySchedulesConserveModuloDeclaredLoss) {
  const Sweep sweep = explore(true);
  EXPECT_EQ(sweep.schedules, 1600u);
  EXPECT_GT(sweep.balance_ops, 0u);
  EXPECT_GT(sweep.drops, 0u);
  EXPECT_GT(sweep.rollbacks, 0u);
  EXPECT_GT(sweep.lost_packets, 0u);
}

}  // namespace
}  // namespace dlb
