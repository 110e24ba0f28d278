// Seeded fault injection as a transport decorator.
//
// PR 3 taught the in-process World to drop/duplicate/delay messages
// from per-link SplitMix64 streams; with the transport seam the dice
// move here, *above* the backend, so the identical (plan seed, traffic)
// pair produces the identical fault schedule whether the bytes travel
// through in-process mailboxes or real sockets.  The decision streams
// are keyed exactly as before — (plan seed, source, dest) — and only
// the owning rank's thread/process ever touches its outgoing links, so
// determinism needs no locks.
//
// Semantics preserved verbatim from the pre-seam World::faulty_send:
//   - a send to a peer already known *dead* is discarded before any
//     dice roll (the wire leads nowhere; counted as sends_to_dead),
//   - drop: the message vanishes, the held slot is untouched,
//   - delay: the message is stashed and released just after the next
//     message that actually flows on the link (deterministic reorder);
//     flush() releases stragglers at clean termination, a crash
//     strands them,
//   - duplicate: delivered twice.
// Every application message the decorator does not deliver -- dropped,
// sent to a dead peer, still held when its destination died, or still
// held when its own sender crashed -- is reported once, with its
// payload, to the sink's `discarded` list, so a protocol driver can
// declare the load it carried lost.
//
// Tags at or above Transport::kReservedTagFloor bypass the dice: the
// control plane (collective rounds, handshakes) is modelled as
// reliable, mirroring the in-process collectives' contract.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "mp/fault.hpp"
#include "mp/message.hpp"
#include "mp/transport.hpp"
#include "obs/metrics.hpp"

namespace dlb {

/// Shared fault accounting: counter cells are optional (null = detached
/// metrics); `stats` and `discarded` guarded by `mutex` (never hot —
/// fault paths only).
struct FaultSink {
  std::mutex* mutex = nullptr;
  FaultStats* stats = nullptr;
  obs::Counter* dropped = nullptr;
  obs::Counter* duplicated = nullptr;
  obs::Counter* delayed = nullptr;
  obs::Counter* sends_to_dead = nullptr;
  /// Receives each undelivered application message (source = this
  /// endpoint).  Null: not collected.
  std::vector<MpMessage>* discarded = nullptr;
};

class FaultyTransport : public Transport {
 public:
  /// Decorates `inner` with the plan's per-link fault streams for this
  /// endpoint's outgoing links.  `sink.stats`/`sink.mutex` must outlive
  /// the decorator; counters may be null.
  FaultyTransport(Transport& inner, const FaultPlan& plan,
                  const FaultSink& sink);

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }
  void send(int dest, int tag, const std::int64_t* words,
            std::size_t count) override;
  MpMessage recv(int source, int tag) override {
    return inner_.recv(source, tag);
  }
  std::optional<MpMessage> recv_until(
      int source, int tag,
      std::chrono::steady_clock::time_point deadline) override {
    return inner_.recv_until(source, tag, deadline);
  }
  std::optional<MpMessage> try_recv(int source, int tag) override {
    return inner_.try_recv(source, tag);
  }
  PeerState peer_state(int rank) const override {
    return inner_.peer_state(rank);
  }

  /// Releases every held (delayed) message to its non-dead destination
  /// and discards the rest.  Called on clean termination.
  void flush() override;

  /// Discards every held message: the sender crashed, so they strand.
  void discard_held();

  /// flush() then close the inner transport.
  void close() override;

 private:
  struct HeldMessage {
    int tag = 0;
    MpPayload payload;
  };
  struct Link {
    LinkFaultState faults;
    std::optional<HeldMessage> held;
  };

  void count_fault(std::uint64_t FaultStats::*counter, obs::Counter* cell);
  void discard(int tag, const std::int64_t* words, std::size_t count);

  Transport& inner_;
  FaultSink sink_;
  std::vector<Link> links_;  // by destination rank
};

}  // namespace dlb
