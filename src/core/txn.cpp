#include "core/txn.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

TxnEndpoint::TxnEndpoint(std::uint32_t id, double f, std::uint32_t delta,
                         bool tolerate_faults)
    : id_(id), f_(f), faults_(tolerate_faults) {
  // Warm the transaction scratch to its bounds up front: a partner
  // count below delta early on must not leave a short vector that
  // reallocates the first time every partner accepts late in a run.
  partners_.reserve(delta);
  accepted_.reserve(delta);
  offered_.reserve(delta);
  replied_.reserve(delta);
}

void TxnEndpoint::apply(WorkEvent ev, TxnHost& host) {
  if (mode_ == Mode::Locked) {
    deferred_.push_back(ev);
    ++counters_.deferred_events;
    return;
  }
  if (ev.generate) {
    ++load_;
    ++counters_.generated;
  }
  if (ev.consume) {
    if (load_ > 0) {
      --load_;
      ++counters_.consumed;
    } else {
      ++counters_.consume_failures;
    }
  }
  if (mode_ == Mode::Idle && triggered()) open(host);
}

bool TxnEndpoint::triggered() const {
  const auto load = static_cast<double>(load_);
  const auto l_old = static_cast<double>(l_old_);
  return (load_ > l_old_ && load >= f_ * l_old) ||
         (load_ < l_old_ && l_old_ >= 1 && load <= l_old / f_);
}

void TxnEndpoint::send(TxnHost& host, std::uint32_t to, TxnMsg::Type type,
                       std::uint64_t txn, std::int64_t load) {
  ++counters_.messages;
  host.send(to, TxnMsg{type, id_, txn, load});
}

void TxnEndpoint::open(TxnHost& host) {
  mode_ = Mode::Initiating;
  txn_ = (static_cast<std::uint64_t>(id_ + 1) << 32) | ++txn_count_;
  partners_.clear();
  host.open(id_, txn_, partners_);
  accepted_.clear();
  offered_.clear();
  replied_.clear();
  pending_ = static_cast<std::uint32_t>(partners_.size());
  for (std::uint32_t q : partners_)
    send(host, q, TxnMsg::Type::Invite, txn_, 0);
  if (pending_ == 0) close(host);  // no live partner to invite
}

void TxnEndpoint::deliver(const TxnMsg& msg, TxnHost& host) {
  switch (msg.type) {
    case TxnMsg::Type::Invite:
      if (mode_ != Mode::Idle ||
          (faults_ && (completed_.count(msg.txn) != 0 ||
                       aborted_.count(msg.txn) != 0))) {
        ++counters_.refusals;
        send(host, msg.from, TxnMsg::Type::Refuse, msg.txn, 0);
        return;
      }
      mode_ = Mode::Locked;
      txn_ = msg.txn;
      send(host, msg.from, TxnMsg::Type::Accept, msg.txn, load_);
      return;
    case TxnMsg::Type::Accept:
    case TxnMsg::Type::Refuse:
      on_reply(msg, host);
      return;
    case TxnMsg::Type::Assign:
      on_assign(msg, host);
      return;
  }
}

void TxnEndpoint::on_reply(const TxnMsg& msg, TxnHost& host) {
  const bool accept = msg.type == TxnMsg::Type::Accept;
  if (mode_ == Mode::Initiating && msg.txn == txn_) {
    // A duplicate resolves nothing: after an Accept the sender is still
    // owed its real Assign, which an early unlock would make it discard.
    if (faults_ && std::find(replied_.begin(), replied_.end(), msg.from) !=
                       replied_.end())
      return;
    DLB_ENSURE(pending_ > 0, "more replies than invitations");
    replied_.push_back(msg.from);
    if (accept) {
      accepted_.push_back(msg.from);
      offered_.push_back(msg.load);
    }
    if (--pending_ == 0) close(host);
    return;
  }
  DLB_ENSURE(faults_, "reply without a matching open transaction");
  if (!accept) return;  // a stray Refuse has nothing pending on it
  // The sender is locked awaiting an Assign for a transaction that
  // closed without it: unlock it with Assign(0) -- unless it already got
  // its real Assign, which the rollback could overtake on a link.
  const auto it = assigned_.find(msg.txn);
  if (it == assigned_.end() ||
      std::find(it->second.begin(), it->second.end(), msg.from) ==
          it->second.end())
    send(host, msg.from, TxnMsg::Type::Assign, msg.txn, 0);
}

void TxnEndpoint::on_assign(const TxnMsg& msg, TxnHost& host) {
  if (mode_ == Mode::Locked && msg.txn == txn_) {
    load_ += msg.load;
    l_old_ = load_;
    if (faults_) completed_.insert(txn_);
    release(host);
    return;
  }
  DLB_ENSURE(faults_, "assignment without a matching lock");
  // A duplicate of an applied Assign, or one whose lock was rolled back
  // (or never taken): the delta is lost, declared once.
  if (completed_.insert(msg.txn).second) {
    ++counters_.lost_packets;
    counters_.lost_load += msg.load;
  }
}

void TxnEndpoint::release(TxnHost& host) {
  mode_ = Mode::Idle;
  // Replay the demand that arrived while locked.  A replay may open a
  // transaction, after which the rest applies at once; no message
  // arrives mid-replay, so nothing is deferred again.
  for (const WorkEvent& ev : deferred_) apply(ev, host);
  deferred_.clear();
}

void TxnEndpoint::timeout(TxnHost& host) {
  DLB_REQUIRE(faults_, "timeouts need the fault bookkeeping");
  if (mode_ == Mode::Initiating) {
    pending_ = 0;  // the silent partners count as Refuse
    close(host);
  } else if (mode_ == Mode::Locked) {
    ++counters_.rollbacks;
    aborted_.insert(txn_);
    release(host);
  }
}

void TxnEndpoint::close(TxnHost& host) {
  mode_ = Mode::Idle;
  if (accepted_.empty()) {
    ++counters_.refused_txns;
    l_old_ = load_;
    return;
  }
  std::int64_t pool = load_;
  for (std::int64_t l : offered_) pool += l;
  const auto m = static_cast<std::int64_t>(accepted_.size()) + 1;
  const std::int64_t base = pool / m;
  std::int64_t remainder = pool % m;
  const std::int64_t own = base + (remainder > 0 ? 1 : 0);
  if (remainder > 0) --remainder;
  if (own > load_)
    counters_.packets_moved += static_cast<std::uint64_t>(own - load_);
  load_ = own;
  for (std::size_t k = 0; k < accepted_.size(); ++k) {
    const std::int64_t share =
        base + (static_cast<std::int64_t>(k) < remainder ? 1 : 0);
    if (share > offered_[k])
      counters_.packets_moved += static_cast<std::uint64_t>(share - offered_[k]);
    send(host, accepted_[k], TxnMsg::Type::Assign, txn_, share - offered_[k]);
  }
  if (faults_) assigned_.emplace(txn_, accepted_);
  ++counters_.balance_ops;
  l_old_ = load_;
}

}  // namespace dlb
