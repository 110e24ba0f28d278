// The multi-process backend of the transport seam: one OS process per
// rank, stream sockets between every pair.
//
// Topology: rank r listens on an endpoint derived from a shared
// rendezvous directory (Unix-domain socket `<dir>/rank<r>.sock` by
// default; with `tcp` a 127.0.0.1 ephemeral port published as
// `<dir>/rank<r>.port`).  For each pair (i, j) with i < j, j connects
// to i and announces itself with a Hello frame, so the full mesh is
// n·(n-1)/2 bidirectional connections.  Connect attempts retry with
// bounded exponential backoff plus jitter until the peer's listener
// appears (ranks start in any order).
//
// Wire format: mp/frame.hpp — length-prefixed, FNV-1a-checksummed
// frames over the MpPayload word encoding.  A frame that fails its
// checksum is dropped and counted; corruption is treated exactly like
// message loss, which the protocols above already survive.
//
// Failure detector: three kinds of evidence feed the per-peer state —
//   - a Goodbye frame marks the peer Terminated (clean exit),
//   - EOF / ECONNRESET / EPIPE without a Goodbye marks it Dead
//     (a SIGKILLed process's kernel closes its sockets, so real
//     crashes are detected at OS speed, not heartbeat speed),
//   - silence longer than `suspect_after` marks it Dead (the backstop
//     for wedged-but-connected peers); heartbeats every `heartbeat`
//     keep healthy-but-quiet peers from being suspected.
// The verdict surfaces through Transport::peer_state — the same
// alive-mask path the in-process backend feeds.
//
// Blocking discipline: sends are buffered (never block the caller);
// receives run a spin-then-block pump — a short burst of non-blocking
// polls through support/backoff.hpp's two-phase waiter for the
// request-response fast path, then poll(2) with a timeout capped at
// the heartbeat interval so the detector keeps running during long
// waits.  All deadlines are std::chrono::steady_clock.
//
// Threading: a SocketTransport belongs to one thread (its rank's);
// nothing here is locked.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mp/frame.hpp"
#include "mp/payload.hpp"
#include "mp/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/ring_queue.hpp"

namespace dlb {

/// Per-rank observability sinks for a SocketTransport (the
/// multi-process analogue of World::attach_metrics).  Both pointers
/// must outlive the transport; either may be null.
struct SocketObs {
  obs::TraceBuffer* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct SocketOptions {
  /// Rendezvous directory shared by all ranks (created by the parent,
  /// e.g. ProcessGroup::make_rendezvous_dir()).
  std::string dir;
  /// false: Unix-domain sockets (default); true: TCP over 127.0.0.1.
  bool tcp = false;
  /// Keepalive period; also caps every blocking poll so the detector
  /// and outbound flushing make progress during long receives.
  std::chrono::milliseconds heartbeat{50};
  /// Silence beyond this marks a connected peer Dead.  <= 0 disables
  /// the silence detector (EOF/Goodbye evidence still applies).
  std::chrono::milliseconds suspect_after{2000};
  /// Overall budget for the startup rendezvous (bind + full mesh).
  std::chrono::milliseconds connect_timeout{10000};
};

class SocketTransport : public Transport {
 public:
  /// Performs the full rendezvous: binds this rank's endpoint, connects
  /// to every lower rank (with retry/backoff), accepts every higher
  /// rank.  Throws contract_error if the mesh is not complete within
  /// `opts.connect_timeout`.
  SocketTransport(int rank, int size, SocketOptions opts);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  int rank() const override { return rank_; }
  int size() const override { return size_; }
  void send(int dest, int tag, const std::int64_t* words,
            std::size_t count) override;
  MpMessage recv(int source, int tag) override;
  std::optional<MpMessage> recv_until(
      int source, int tag,
      std::chrono::steady_clock::time_point deadline) override;
  std::optional<MpMessage> try_recv(int source, int tag) override;
  PeerState peer_state(int rank) const override;
  void close() override;

  /// Drives I/O without receiving: flushes pending sends, ingests
  /// inbound frames, runs the failure detector.  `budget` bounds the
  /// blocking poll (0 = non-blocking probe).
  void pump(std::chrono::milliseconds budget);

  /// Attaches observability.  Counters are resolved once here and
  /// updated lock-free on the data path; detached (the default) the
  /// data path pays one pointer-null check.  Data-frame counters:
  /// aggregate mp.sent/mp.sent_bytes and mp.delivered/
  /// mp.delivered_bytes plus per-ordered-link
  /// mp.link.<s>-><d>.{sent_messages,sent_bytes} on the sender and
  /// mp.link.<s>-><d>.{messages,bytes} on the receiver (delivered,
  /// matching the local backend's naming).  When a trace buffer is
  /// given, every framed Data send records a FlowStart and every
  /// matching decode a FlowEnd, bound by a (src, dst, per-link seq)
  /// flow id — per-link stream order makes the two sides agree without
  /// any wire overhead — and failure-detector verdicts become cat
  /// "detector" instants (arg = the indicted rank).  Call before any
  /// traffic so both ends of each link count from seq 0.
  void attach_obs(const SocketObs& obs);

  /// Diagnostics (single-threaded counters, reset never).
  std::uint64_t frames_corrupt() const { return frames_corrupt_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t recv_timeouts() const { return recv_timeouts_; }
  std::uint64_t connect_retries() const { return connect_retries_; }

  /// Endpoint this rank binds in `dir` (socket path, or port file for
  /// TCP) — exposed for cleanup and tests.
  static std::string endpoint_path(const std::string& dir, int rank,
                                   bool tcp);

 private:
  struct Peer {
    int fd = -1;
    PeerState state = PeerState::Alive;
    bool said_goodbye = false;
    std::vector<std::uint8_t> rx;          // undecoded inbound bytes
    std::vector<std::uint8_t> tx;          // unflushed outbound bytes
    std::size_t tx_off = 0;                // flushed prefix of tx
    std::chrono::steady_clock::time_point last_heard{};
    std::uint64_t tx_seq = 0;  // Data frames enqueued on this link
    std::uint64_t rx_seq = 0;  // Data frames decoded off this link
  };

  void bind_listener();
  void connect_out(std::chrono::steady_clock::time_point deadline);
  void accept_in(std::chrono::steady_clock::time_point deadline);
  void adopt_fd(int peer_rank, int fd, const std::uint8_t* leftover,
                std::size_t leftover_len);
  void enqueue_frame(Peer& peer, FrameKind kind, int tag,
                     const std::int64_t* words, std::size_t count);
  void flush_peer(int peer_rank);
  void ingest(int peer_rank);
  /// `verdict` names the detector evidence ("eof", "suspect",
  /// "send_error") for the trace instant; must be a string literal.
  void mark_peer_down(int peer_rank, const char* verdict);
  bool can_still_arrive(int source) const;
  bool tracing() const { return trace_ != nullptr && trace_->enabled(); }

  int rank_;
  int size_;
  SocketOptions opts_;
  bool closed_ = false;
  int listen_fd_ = -1;
  std::string listen_path_;  // unlinked on close (unix socket / port file)
  std::vector<Peer> peers_;  // indexed by rank; self slot unused
  RingQueue<MpMessage> inbox_;  // decoded Data frames, arrival order
  std::vector<std::uint8_t> encode_scratch_;
  std::chrono::steady_clock::time_point last_beat_{};

  std::uint64_t frames_corrupt_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t recv_timeouts_ = 0;
  std::uint64_t connect_retries_ = 0;

  // Observability (null / empty when detached; see attach_obs).
  obs::TraceBuffer* trace_ = nullptr;
  struct LinkCell {
    obs::Counter* messages = nullptr;
    obs::Counter* bytes = nullptr;
  };
  obs::Counter* m_sent_ = nullptr;
  obs::Counter* m_sent_bytes_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_delivered_bytes_ = nullptr;
  obs::Counter* m_corrupt_ = nullptr;
  obs::Counter* m_heartbeats_ = nullptr;
  obs::Counter* m_recv_timeouts_ = nullptr;
  std::vector<LinkCell> link_tx_;  // indexed by dest rank
  std::vector<LinkCell> link_rx_;  // indexed by source rank
};

}  // namespace dlb
