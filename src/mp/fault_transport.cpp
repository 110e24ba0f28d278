#include "mp/fault_transport.hpp"

namespace dlb {

FaultyTransport::FaultyTransport(Transport& inner, const FaultPlan& plan,
                                 const FaultSink& sink)
    : inner_(inner), sink_(sink) {
  links_.resize(static_cast<std::size_t>(inner.size()));
  for (int d = 0; d < inner.size(); ++d)
    links_[static_cast<std::size_t>(d)].faults.reset(
        plan.seed, inner.rank(), d, plan.default_link);
}

void FaultyTransport::count_fault(std::uint64_t FaultStats::*counter,
                                  obs::Counter* cell) {
  if (cell != nullptr) cell->add(1);
  std::lock_guard<std::mutex> lock(*sink_.mutex);
  ++(sink_.stats->*counter);
}

void FaultyTransport::send(int dest, int tag, const std::int64_t* words,
                           std::size_t count) {
  if (tag >= kReservedTagFloor) {  // control plane: reliable by contract
    inner_.send(dest, tag, words, count);
    return;
  }
  if (inner_.peer_dead(dest)) {
    // The wire to a dead rank leads nowhere; count it so protocols'
    // accounting can reconcile.  No dice roll is consumed.
    count_fault(&FaultStats::sends_to_dead, sink_.sends_to_dead);
    discard(tag, words, count);
    return;
  }
  Link& link = links_[static_cast<std::size_t>(dest)];
  const FaultDecision decision = link.faults.next();
  if (decision.drop) {
    count_fault(&FaultStats::messages_dropped, sink_.dropped);
    discard(tag, words, count);
    return;
  }
  // A message marked `delay` is stashed and released just after the next
  // message that actually flows on this link (a deterministic reorder);
  // a previously held message is released now.
  std::optional<HeldMessage> release = std::move(link.held);
  link.held.reset();
  if (decision.delay) {
    link.held.emplace();
    link.held->tag = tag;
    link.held->payload.assign(words, count);
    count_fault(&FaultStats::messages_delayed, sink_.delayed);
    if (release)
      inner_.send(dest, release->tag, release->payload.data(),
                  release->payload.size());
    return;
  }
  if (decision.duplicate) {
    count_fault(&FaultStats::messages_duplicated, sink_.duplicated);
    inner_.send(dest, tag, words, count);  // first copy
  }
  inner_.send(dest, tag, words, count);
  if (release)
    inner_.send(dest, release->tag, release->payload.data(),
                release->payload.size());
}

void FaultyTransport::discard(int tag, const std::int64_t* words,
                              std::size_t count) {
  if (sink_.discarded == nullptr) return;
  MpMessage msg;
  msg.source = inner_.rank();
  msg.tag = tag;
  msg.payload.assign(words, count);
  std::lock_guard<std::mutex> lock(*sink_.mutex);
  sink_.discarded->push_back(std::move(msg));
}

void FaultyTransport::flush() {
  for (int d = 0; d < inner_.size(); ++d) {
    std::optional<HeldMessage>& held = links_[static_cast<std::size_t>(d)].held;
    if (!held) continue;
    if (inner_.peer_dead(d))
      discard(held->tag, held->payload.data(), held->payload.size());
    else
      inner_.send(d, held->tag, held->payload.data(), held->payload.size());
    held.reset();
  }
}

void FaultyTransport::discard_held() {
  for (Link& link : links_) {
    if (link.held)
      discard(link.held->tag, link.held->payload.data(),
              link.held->payload.size());
    link.held.reset();
  }
}

void FaultyTransport::close() {
  flush();
  inner_.close();
}

}  // namespace dlb
