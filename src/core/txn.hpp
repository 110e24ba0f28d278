// The balance transaction of the total-load protocol, as one pure
// per-processor state machine.
//
// §2 of the paper treats a balancing operation as one atomic step.  Over
// messages it becomes a three-message transaction:
//   Invite(txn)             initiator -> each of its drawn partners
//   Accept(load) / Refuse   partner   -> initiator
//   Assign(delta)           initiator -> each accepting partner
// Each processor is Idle, Initiating (invites sent, awaiting every
// reply) or Locked (accepted an invite, awaiting its Assign).
//   - Trigger: an Idle processor opens a transaction when its load has
//     drifted by the factor f from l_old, the load after its last
//     transaction (the practical total-load variant of [7]; the
//     per-class d/b ledger is the sequential System's business).
//   - Refusal: an Initiating or Locked processor refuses every Invite,
//     so no waits-for cycle can form; the initiator proceeds with the
//     partners that accepted.
//   - Equalisation: the initiator splits its own load plus the loads
//     offered in the Accepts evenly, takes the first remainder packet
//     itself and gives one to each partner in order.
//   - Delta-Assign: Assign carries the share minus the partner's offered
//     load.  A Locked processor mutates nothing (application demand that
//     reaches it is deferred and replayed on release), so the offered
//     load is exact, packets are conserved, and unlocking without an
//     Assign IS the rollback.
//
// Fault bookkeeping (only when the driver runs under a fault plan):
// drops, duplicates, reordering and timeouts must not break conservation
// modulo declared loss, sum(loads) == generated - consumed - lost_load.
//   - A timeout makes an initiator treat its silent partners as Refuse,
//     and makes a Locked partner roll back (the transaction joins the
//     aborted set).
//   - Duplicate Accept/Refuse of the open transaction are ignored; an
//     Invite of a completed or aborted transaction is refused.
//   - A stray Accept (its transaction closed without it) gets a rollback
//     Assign(0), unless its sender already got a real Assign.
//   - A stray Assign (rolled back or unknown) is declared lost exactly
//     once, by adding its transaction to the completed set.
// Without a plan an unexpected message is a contract failure, and the
// steady state allocates nothing.
//
// The drivers own everything else: time, transport, partner draws,
// threads, fault injection, journaling and observability (AsyncSystem:
// a virtual clock; ThreadedSystem: the ranks of an mp::World).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "workload/workload.hpp"

namespace dlb {

struct TxnMsg {
  enum class Type : std::uint8_t { Invite, Accept, Refuse, Assign };
  Type type = Type::Invite;
  std::uint32_t from = 0;
  std::uint64_t txn = 0;
  std::int64_t load = 0;  // Accept: offered load; Assign: delta
};

/// The driver side of an endpoint: partner draws and transport.
class TxnHost {
 public:
  /// Endpoint `self` opens transaction `txn`: fill the (cleared)
  /// `partners` with the processors to invite.  Called once per
  /// transaction, before any of its messages.
  virtual void open(std::uint32_t self, std::uint64_t txn,
                    std::vector<std::uint32_t>& partners) = 0;
  virtual void send(std::uint32_t to, const TxnMsg& msg) = 0;

 protected:
  ~TxnHost() = default;  // hosts are never deleted through this interface
};

struct TxnCounters {
  std::uint64_t balance_ops = 0;    // transactions closed with a partner
  std::uint64_t refused_txns = 0;   // closed with no partner accepting
  std::uint64_t rollbacks = 0;      // locks released without an Assign
  std::uint64_t refusals = 0;
  std::uint64_t messages = 0;
  std::uint64_t packets_moved = 0;  // packets the equalisations gained
  std::uint64_t generated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t consume_failures = 0;
  std::uint64_t deferred_events = 0;  // demand held by a lock
  std::uint64_t lost_packets = 0;     // stray Assigns declared lost
  std::int64_t lost_load = 0;         // their deltas
};

class TxnEndpoint {
 public:
  enum class Mode : std::uint8_t { Idle, Initiating, Locked };

  /// `tolerate_faults` switches the fault bookkeeping on; drivers set it
  /// exactly when they run under an enabled FaultPlan.
  TxnEndpoint(std::uint32_t id, double f, std::uint32_t delta,
              bool tolerate_faults);

  /// One step's application demand (deferred while Locked).
  void apply(WorkEvent ev, TxnHost& host);
  void deliver(const TxnMsg& msg, TxnHost& host);
  /// The driver's wait for the open transaction expired.
  void timeout(TxnHost& host);

  Mode mode() const { return mode_; }
  bool idle() const { return mode_ == Mode::Idle; }
  /// Id of the open (initiated or locked) transaction.
  std::uint64_t txn() const { return txn_; }
  /// Replies the open initiation still awaits.
  std::uint32_t pending() const { return pending_; }
  std::int64_t load() const { return load_; }
  const TxnCounters& counters() const { return counters_; }

 private:
  bool triggered() const;
  void open(TxnHost& host);
  void close(TxnHost& host);
  void release(TxnHost& host);
  void on_reply(const TxnMsg& msg, TxnHost& host);
  void on_assign(const TxnMsg& msg, TxnHost& host);
  void send(TxnHost& host, std::uint32_t to, TxnMsg::Type type,
            std::uint64_t txn, std::int64_t load);

  std::uint32_t id_;
  double f_;
  bool faults_;
  Mode mode_ = Mode::Idle;
  std::int64_t load_ = 0;
  std::int64_t l_old_ = 0;
  std::uint64_t txn_ = 0;
  std::uint64_t txn_count_ = 0;
  std::uint32_t pending_ = 0;
  // Open initiation: the invited, the accepted with their offered loads,
  // and everyone who replied.  Warm across transactions.
  std::vector<std::uint32_t> partners_;
  std::vector<std::uint32_t> accepted_;
  std::vector<std::int64_t> offered_;
  std::vector<std::uint32_t> replied_;
  std::vector<WorkEvent> deferred_;
  TxnCounters counters_;
  // Fault bookkeeping: closed transactions (served, or a stray Assign
  // declared lost), rolled-back locks, and this endpoint's initiations
  // with the partners that got a real Assign.
  std::unordered_set<std::uint64_t> completed_;
  std::unordered_set<std::uint64_t> aborted_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> assigned_;
};

}  // namespace dlb
