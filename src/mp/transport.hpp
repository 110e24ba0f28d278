// The transport seam of the message-passing layer.
//
// `Comm` (mp/communicator.hpp) exposes the SPMD programming model —
// ranks, tagged point-to-point messages, collectives.  Everything a
// backend must supply to carry that model is collected here as the
// `Transport` interface: tagged sends, matching receives with monotonic
// deadlines, and a per-peer liveness verdict.  Two backends implement
// it:
//
//   LocalTransport   (mp/communicator.hpp)  one OS process, one thread
//                    per rank, delivery through in-process mailboxes —
//                    the original substrate, unchanged in behaviour.
//   SocketTransport  (mp/socket_transport.hpp)  one OS process per
//                    rank, length-prefixed + checksummed frames over
//                    Unix-domain (or TCP-loopback) stream sockets, a
//                    heartbeat failure detector feeding the same
//                    alive-mask path.
//
// The seeded fault injector sits *above* the seam as a decorator
// (mp/fault_transport.hpp), so an identical (seed, traffic) pair
// produces the identical drop/dup/delay schedule against either
// backend.
//
// Contracts shared by all backends:
//   - send() never blocks the caller indefinitely (buffered locally
//     when the peer is slow) and silently discards traffic to a peer
//     already known dead (counted by the caller-visible stats).
//   - recv_until() honours a std::chrono::steady_clock deadline — the
//     monotonic clock, immune to wall-clock steps — and returns early
//     with nullopt when no matching message can ever arrive (source
//     dead or cleanly terminated with nothing queued).
//   - Matching follows MPI convention: source -1 matches any source,
//     tag -1 matches any tag.  Per ordered link, matching receives see
//     messages in send order.
//   - Tags at or above kReservedTagFloor belong to the transport /
//     control plane (collective rounds, acks); application protocols
//     must stay below it.  The fault decorator never touches reserved
//     tags — the control plane is modelled as reliable, exactly like
//     the in-process collectives (see mp/communicator.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "mp/message.hpp"

namespace dlb {

/// Liveness of a peer as this endpoint currently believes it.
enum class PeerState : std::uint8_t {
  Alive = 0,       // responsive (or not yet proven otherwise)
  Dead = 1,        // crashed: EOF/reset, missed heartbeats, or a fault
                   // plan's scheduled kill
  Terminated = 2,  // ran off the end of its program and said goodbye
};

class Transport {
 public:
  /// First tag reserved for transport-internal traffic.  Application
  /// tags must be < kReservedTagFloor; the fault decorator passes
  /// reserved tags through un-diced.
  static constexpr int kReservedTagFloor = 0x7fff0000;

  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Buffered, non-blocking send of `count` 64-bit words to `dest`.
  virtual void send(int dest, int tag, const std::int64_t* words,
                    std::size_t count) = 0;

  /// Blocking receive of the oldest matching message.  Raises
  /// contract_error when no matching message can ever arrive (source —
  /// or, for any-source, every peer — dead/terminated, nothing queued).
  virtual MpMessage recv(int source, int tag) = 0;

  /// Oldest matching message, waiting at most until `deadline`
  /// (steady_clock).  nullopt on deadline expiry, and early-nullopt
  /// when nothing matching can ever arrive.
  virtual std::optional<MpMessage> recv_until(
      int source, int tag, std::chrono::steady_clock::time_point deadline) = 0;

  /// Non-blocking probe-and-receive.
  virtual std::optional<MpMessage> try_recv(int source, int tag) = 0;

  /// Releases every message this endpoint holds back (the fault
  /// decorator's delayed ones).  Backends that hold nothing back keep
  /// this no-op.
  virtual void flush() {}

  /// This endpoint's current belief about `rank` (its own rank reports
  /// Alive until it terminates).
  virtual PeerState peer_state(int rank) const = 0;

  /// Clean shutdown: announce termination to peers and release
  /// resources.  Idempotent.  A crash is the *absence* of this call.
  virtual void close() = 0;

  bool peer_alive(int r) const { return peer_state(r) == PeerState::Alive; }
  bool peer_dead(int r) const { return peer_state(r) == PeerState::Dead; }

  /// Live peers including self (unless self terminated).
  int live_count() const {
    int live = 0;
    for (int r = 0; r < size(); ++r)
      if (peer_state(r) == PeerState::Alive) ++live;
    return live;
  }
};

}  // namespace dlb
