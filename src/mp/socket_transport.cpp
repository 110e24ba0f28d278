#include "mp/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include "mp/frame.hpp"
#include "support/backoff.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd, bool tcp) {
  if (!tcp) return;
  // Balance transactions are request-response over tiny frames; Nagle
  // would serialize them against delayed acks.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking send of a whole buffer (rendezvous only; fds are still
/// blocking there and frames are tiny).
void send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    DLB_ENSURE(n > 0, "handshake send failed");
    off += static_cast<std::size_t>(n);
  }
}

/// Flow id binding a framed send to its matching decode: per-link
/// sequence number tagged with the ordered (src, dst) pair.  Unique as
/// long as ranks fit in a byte and a link carries < 2^48 data frames —
/// both far beyond anything this transport is asked to do.
std::uint64_t flow_id_of(int src, int dst, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint8_t>(src)) << 56) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(dst)) << 48) |
         (seq & ((std::uint64_t{1} << 48) - 1));
}

/// Flow category: application transfers vs reserved control plane (the
/// merged trace filters on this; Chrome binds flows by (cat, id, name)
/// so both endpoints must derive it identically — they do, from the
/// tag).
const char* flow_cat(int tag) {
  return tag < Transport::kReservedTagFloor ? "transfer" : "ctrl";
}

bool matches(const MpMessage& msg, int source, int tag) {
  return (source < 0 || msg.source == source) && (tag < 0 || msg.tag == tag);
}

std::optional<MpMessage> take_match(RingQueue<MpMessage>& messages,
                                    int source, int tag) {
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (matches(messages[i], source, tag)) {
      std::optional<MpMessage> out = std::move(messages[i]);
      messages.erase(i);
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace

std::string SocketTransport::endpoint_path(const std::string& dir, int rank,
                                           bool tcp) {
  return dir + "/rank" + std::to_string(rank) + (tcp ? ".port" : ".sock");
}

SocketTransport::SocketTransport(int rank, int size, SocketOptions opts)
    : rank_(rank), size_(size), opts_(std::move(opts)) {
  DLB_REQUIRE(size >= 1, "transport needs at least one rank");
  DLB_REQUIRE(rank >= 0 && rank < size, "rank out of range");
  DLB_REQUIRE(!opts_.dir.empty(), "socket transport needs a rendezvous dir");
  peers_.resize(static_cast<std::size_t>(size));
  const auto deadline = Clock::now() + opts_.connect_timeout;
  bind_listener();
  connect_out(deadline);
  accept_in(deadline);
  // Mesh complete: switch every link to the steady-state non-blocking
  // discipline and start the failure-detector clocks.
  const auto now = Clock::now();
  for (int r = 0; r < size_; ++r) {
    Peer& p = peers_[static_cast<std::size_t>(r)];
    if (r == rank_ || p.fd < 0) continue;
    set_nonblocking(p.fd);
    p.last_heard = now;
  }
  last_beat_ = now;
}

SocketTransport::~SocketTransport() { close(); }

void SocketTransport::bind_listener() {
  if (opts_.tcp) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    DLB_ENSURE(listen_fd_ >= 0, "socket() failed");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: published through the port file
    DLB_ENSURE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "tcp bind failed");
    DLB_ENSURE(::listen(listen_fd_, size_) == 0, "listen failed");
    sockaddr_in got{};
    socklen_t len = sizeof(got);
    DLB_ENSURE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&got),
                             &len) == 0,
               "getsockname failed");
    // Publish the port atomically (write-then-rename): a connector
    // either sees no file yet or a complete one, never a torn write.
    listen_path_ = endpoint_path(opts_.dir, rank_, true);
    const std::string tmp = listen_path_ + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    DLB_ENSURE(f != nullptr, "cannot write port file");
    std::fprintf(f, "%d\n", static_cast<int>(ntohs(got.sin_port)));
    std::fclose(f);
    DLB_ENSURE(std::rename(tmp.c_str(), listen_path_.c_str()) == 0,
               "cannot publish port file");
  } else {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DLB_ENSURE(listen_fd_ >= 0, "socket() failed");
    listen_path_ = endpoint_path(opts_.dir, rank_, false);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    DLB_REQUIRE(listen_path_.size() < sizeof(addr.sun_path),
                "rendezvous dir makes the socket path too long");
    std::strncpy(addr.sun_path, listen_path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(listen_path_.c_str());  // stale endpoint from a dead run
    DLB_ENSURE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0,
               "unix bind failed");
    DLB_ENSURE(::listen(listen_fd_, size_) == 0, "listen failed");
  }
}

void SocketTransport::connect_out(Clock::time_point deadline) {
  // Every rank binds its listener before connecting anywhere, so
  // retrying until a lower rank's endpoint appears cannot deadlock.
  SplitMix64 jitter(std::uint64_t{0x736f636b} ^
                    (static_cast<std::uint64_t>(rank_) *
                     std::uint64_t{0x9e3779b9}));
  const auto try_connect = [&](int dest) -> int {
    if (opts_.tcp) {
      const std::string path = endpoint_path(opts_.dir, dest, true);
      std::FILE* f = std::fopen(path.c_str(), "r");
      if (f == nullptr) return -1;  // listener not published yet
      int port = 0;
      const bool ok = std::fscanf(f, "%d", &port) == 1;
      std::fclose(f);
      if (!ok || port <= 0) return -1;
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      DLB_ENSURE(fd >= 0, "socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0)
        return fd;
      ::close(fd);
      return -1;
    }
    const std::string path = endpoint_path(opts_.dir, dest, false);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DLB_ENSURE(fd >= 0, "socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    ::close(fd);  // ENOENT / ECONNREFUSED: peer not listening yet
    return -1;
  };

  for (int d = 0; d < rank_; ++d) {
    std::chrono::milliseconds delay{1};
    while (true) {
      const int fd = try_connect(d);
      if (fd >= 0) {
        set_nodelay(fd, opts_.tcp);
        // Announce which rank owns this end of the link.
        encode_scratch_.clear();
        const std::int64_t me = rank_;
        frame::encode(encode_scratch_,
                      FrameHeader{FrameKind::Hello, rank_, 0, 1}, &me, 1);
        send_all(fd, encode_scratch_.data(), encode_scratch_.size());
        peers_[static_cast<std::size_t>(d)].fd = fd;
        break;
      }
      ++connect_retries_;
      DLB_ENSURE(Clock::now() + delay < deadline,
                 "rendezvous timed out connecting to a lower rank");
      // Bounded exponential backoff with multiplicative jitter so a
      // gang of late starters does not hammer one listener in lockstep.
      const double factor =
          0.5 + static_cast<double>(jitter.next() % 1024) / 1024.0;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          static_cast<double>(delay.count()) * factor));
      delay = std::min(delay * 2, std::chrono::milliseconds{100});
    }
  }
}

void SocketTransport::accept_in(Clock::time_point deadline) {
  int expected = size_ - 1 - rank_;
  struct Pending {
    int fd = -1;
    std::vector<std::uint8_t> buf;
  };
  std::vector<Pending> pending;
  while (expected > 0) {
    DLB_ENSURE(Clock::now() < deadline,
               "rendezvous timed out waiting for higher ranks");
    std::vector<pollfd> fds;
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const Pending& p : pending) fds.push_back(pollfd{p.fd, POLLIN, 0});
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        set_nonblocking(fd);
        set_nodelay(fd, opts_.tcp);
        pending.push_back(Pending{fd, {}});
      }
    }
    for (std::size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      std::uint8_t buf[4096];
      bool identified = false;
      while (true) {
        const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          p.buf.insert(p.buf.end(), buf, buf + n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        break;  // EAGAIN (keep waiting) or EOF/error (judged below)
      }
      const frame::Decoded d = frame::decode(p.buf.data(), p.buf.size());
      if (d.status == frame::DecodeStatus::Ok) {
        DLB_ENSURE(d.header.kind == FrameKind::Hello,
                   "handshake violated: first frame was not Hello");
        const int who = d.header.source;
        DLB_ENSURE(who > rank_ && who < size_,
                   "handshake violated: unexpected rank in Hello");
        // Bytes past the Hello are real traffic from a peer that
        // finished its rendezvous first; keep them.
        adopt_fd(who, p.fd, p.buf.data() + d.consumed,
                 p.buf.size() - d.consumed);
        --expected;
        identified = true;
      } else {
        DLB_ENSURE(d.status == frame::DecodeStatus::NeedMore,
                   "handshake violated: corrupt Hello frame");
      }
      if (identified)
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      else
        ++i;
    }
  }
}

void SocketTransport::adopt_fd(int peer_rank, int fd,
                               const std::uint8_t* leftover,
                               std::size_t leftover_len) {
  Peer& p = peers_[static_cast<std::size_t>(peer_rank)];
  DLB_ENSURE(p.fd < 0, "duplicate connection from a peer");
  p.fd = fd;
  p.rx.assign(leftover, leftover + leftover_len);
}

PeerState SocketTransport::peer_state(int rank) const {
  DLB_REQUIRE(rank >= 0 && rank < size_, "invalid rank");
  if (rank == rank_) return closed_ ? PeerState::Terminated : PeerState::Alive;
  return peers_[static_cast<std::size_t>(rank)].state;
}

void SocketTransport::enqueue_frame(Peer& peer, FrameKind kind, int tag,
                                    const std::int64_t* words,
                                    std::size_t count) {
  if (peer.state != PeerState::Alive || peer.fd < 0) return;
  encode_scratch_.clear();
  frame::encode(encode_scratch_,
                FrameHeader{kind, rank_, tag,
                            static_cast<std::uint32_t>(count)},
                words, count);
  peer.tx.insert(peer.tx.end(), encode_scratch_.begin(),
                 encode_scratch_.end());
  ++frames_sent_;
}

void SocketTransport::send(int dest, int tag, const std::int64_t* words,
                           std::size_t count) {
  DLB_REQUIRE(dest >= 0 && dest < size_, "invalid destination");
  DLB_REQUIRE(!closed_, "send after close");
  if (dest == rank_) {  // self-delivery, parity with the local backend
    MpMessage msg;
    msg.source = rank_;
    msg.tag = tag;
    msg.payload.assign(words, count);
    inbox_.push_back(std::move(msg));
    if (m_sent_ != nullptr) {
      m_sent_->add();
      m_delivered_->add();
    }
    return;
  }
  Peer& p = peers_[static_cast<std::size_t>(dest)];
  if (p.state != PeerState::Alive) return;  // the wire leads nowhere
  const std::uint64_t t0 = tracing() ? trace_->now_ns() : 0;
  enqueue_frame(p, FrameKind::Data, tag, words, count);
  const std::uint64_t seq = p.tx_seq++;
  if (m_sent_ != nullptr) {
    const std::uint64_t wire = encode_scratch_.size();
    m_sent_->add();
    m_sent_bytes_->add(wire);
    link_tx_[static_cast<std::size_t>(dest)].messages->add();
    link_tx_[static_cast<std::size_t>(dest)].bytes->add(wire);
  }
  if (tracing())
    trace_->record_flow("mp.msg", flow_cat(tag), t0, 0,
                        flow_id_of(rank_, dest, seq), /*start=*/true,
                        static_cast<std::uint64_t>(tag));
  flush_peer(dest);
  if (tracing())
    trace_->span_end("send", "mp", t0, 0, static_cast<std::uint64_t>(tag));
}

void SocketTransport::flush_peer(int peer_rank) {
  Peer& p = peers_[static_cast<std::size_t>(peer_rank)];
  if (p.fd < 0) return;
  while (p.tx_off < p.tx.size()) {
    const ssize_t n = ::send(p.fd, p.tx.data() + p.tx_off,
                             p.tx.size() - p.tx_off, MSG_NOSIGNAL);
    if (n > 0) {
      p.tx_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;  // kernel buffer full; POLLOUT will resume the flush
    // EPIPE/ECONNRESET: peer socket is gone
    mark_peer_down(peer_rank, "send_error");
    return;
  }
  p.tx.clear();
  p.tx_off = 0;
}

void SocketTransport::ingest(int peer_rank) {
  Peer& p = peers_[static_cast<std::size_t>(peer_rank)];
  if (p.fd < 0) return;
  std::uint8_t buf[65536];
  bool got_bytes = false;
  bool down = false;
  while (true) {
    const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      p.rx.insert(p.rx.end(), buf, buf + n);
      got_bytes = true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    down = true;  // EOF or hard error — judged after draining rx
    break;
  }
  if (got_bytes) p.last_heard = Clock::now();
  const std::uint64_t t0 = tracing() ? trace_->now_ns() : 0;
  std::uint64_t data_frames = 0;
  // Decode everything we have before passing the liveness verdict: a
  // Goodbye that raced the close must count as clean termination.
  std::size_t off = 0;
  while (off < p.rx.size()) {
    const frame::Decoded d =
        frame::decode(p.rx.data() + off, p.rx.size() - off);
    if (d.status == frame::DecodeStatus::NeedMore) break;
    off += d.consumed;
    if (d.status == frame::DecodeStatus::Corrupt) {
      // Corruption == loss: drop the frame, count it, resync.
      ++frames_corrupt_;
      if (m_corrupt_ != nullptr) m_corrupt_->add();
      continue;
    }
    ++frames_received_;
    switch (d.header.kind) {
      case FrameKind::Data: {
        MpMessage msg;
        msg.source = peer_rank;  // the link identifies the sender
        msg.tag = d.header.tag;
        frame::read_words(d, msg.payload);
        inbox_.push_back(std::move(msg));
        const std::uint64_t seq = p.rx_seq++;
        ++data_frames;
        if (m_delivered_ != nullptr) {
          m_delivered_->add();
          m_delivered_bytes_->add(d.consumed);
          link_rx_[static_cast<std::size_t>(peer_rank)].messages->add();
          link_rx_[static_cast<std::size_t>(peer_rank)].bytes->add(
              d.consumed);
        }
        if (tracing())
          trace_->record_flow("mp.msg", flow_cat(d.header.tag),
                              trace_->now_ns(), 0,
                              flow_id_of(peer_rank, rank_, seq),
                              /*start=*/false,
                              static_cast<std::uint64_t>(d.header.tag));
        break;
      }
      case FrameKind::Goodbye:
        p.said_goodbye = true;
        p.state = PeerState::Terminated;
        if (tracing())
          trace_->instant("goodbye", "detector", 0,
                          static_cast<std::uint64_t>(peer_rank));
        break;
      case FrameKind::Hello:
      case FrameKind::Heartbeat:
        break;  // liveness evidence only (last_heard above)
    }
  }
  p.rx.erase(p.rx.begin(), p.rx.begin() + static_cast<std::ptrdiff_t>(off));
  if (tracing() && data_frames > 0)
    trace_->span_end("ingest", "mp", t0, 0, data_frames);
  if (down) mark_peer_down(peer_rank, "eof");
}

void SocketTransport::mark_peer_down(int peer_rank, const char* verdict) {
  Peer& p = peers_[static_cast<std::size_t>(peer_rank)];
  if (p.fd >= 0) {
    ::close(p.fd);
    p.fd = -1;
  }
  p.tx.clear();
  p.tx_off = 0;
  if (p.state == PeerState::Alive) {
    p.state = p.said_goodbye ? PeerState::Terminated : PeerState::Dead;
    if (tracing())
      trace_->instant(p.said_goodbye ? "goodbye" : verdict, "detector", 0,
                      static_cast<std::uint64_t>(peer_rank));
  }
}

void SocketTransport::pump(std::chrono::milliseconds budget) {
  if (closed_) return;
  const auto now = Clock::now();
  if (now - last_beat_ >= opts_.heartbeat) {
    last_beat_ = now;
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      Peer& p = peers_[static_cast<std::size_t>(r)];
      if (p.state == PeerState::Alive && p.fd >= 0) {
        enqueue_frame(p, FrameKind::Heartbeat, 0, nullptr, 0);
        if (m_heartbeats_ != nullptr) m_heartbeats_->add();
      }
    }
  }
  std::vector<pollfd> fds;
  std::vector<int> owners;
  fds.reserve(static_cast<std::size_t>(size_));
  owners.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    const Peer& p = peers_[static_cast<std::size_t>(r)];
    if (p.fd < 0) continue;
    short events = POLLIN;
    if (p.tx_off < p.tx.size()) events |= POLLOUT;
    fds.push_back(pollfd{p.fd, events, 0});
    owners.push_back(r);
  }
  // Cap the blocking wait at the heartbeat period: the detector and
  // keepalives must keep running during long receives.
  const auto cap = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds{0}, std::min(budget, opts_.heartbeat));
  if (fds.empty()) {
    if (cap.count() > 0) std::this_thread::sleep_for(cap);
    return;
  }
  ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
         static_cast<int>(cap.count()));
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const int r = owners[i];
    if ((fds[i].revents & POLLOUT) != 0) flush_peer(r);
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) ingest(r);
  }
  if (opts_.suspect_after.count() > 0) {
    const auto check = Clock::now();
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      Peer& p = peers_[static_cast<std::size_t>(r)];
      if (p.state == PeerState::Alive && p.fd >= 0 &&
          check - p.last_heard > opts_.suspect_after)
        mark_peer_down(r, "suspect");  // silent too long: suspected dead
    }
  }
}

void SocketTransport::attach_obs(const SocketObs& obs) {
  trace_ = obs.trace;
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& reg = *obs.metrics;
  m_sent_ = &reg.counter("mp.sent");
  m_sent_bytes_ = &reg.counter("mp.sent_bytes");
  m_delivered_ = &reg.counter("mp.delivered");
  m_delivered_bytes_ = &reg.counter("mp.delivered_bytes");
  m_corrupt_ = &reg.counter("mp.frames_corrupt");
  m_heartbeats_ = &reg.counter("mp.heartbeats");
  m_recv_timeouts_ = &reg.counter("mp.recv_timeouts");
  link_tx_.assign(static_cast<std::size_t>(size_), LinkCell{});
  link_rx_.assign(static_cast<std::size_t>(size_), LinkCell{});
  const std::string me = std::to_string(rank_);
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    const std::string out = "mp.link." + me + "->" + std::to_string(r);
    const std::string in = "mp.link." + std::to_string(r) + "->" + me;
    link_tx_[static_cast<std::size_t>(r)] = {
        &reg.counter(out + ".sent_messages"),
        &reg.counter(out + ".sent_bytes")};
    // Delivered traffic keeps the local backend's naming, so merged
    // machine metrics read uniformly across transports.
    link_rx_[static_cast<std::size_t>(r)] = {&reg.counter(in + ".messages"),
                                             &reg.counter(in + ".bytes")};
  }
}

bool SocketTransport::can_still_arrive(int source) const {
  if (source >= 0)
    return source != rank_ &&
           peers_[static_cast<std::size_t>(source)].state == PeerState::Alive;
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    if (peers_[static_cast<std::size_t>(r)].state == PeerState::Alive)
      return true;
  }
  return false;
}

MpMessage SocketTransport::recv(int source, int tag) {
  DLB_REQUIRE(source < size_, "invalid source");
  Backoff backoff;
  while (true) {
    if (auto out = take_match(inbox_, source, tag)) return std::move(*out);
    pump(std::chrono::milliseconds{0});
    if (auto out = take_match(inbox_, source, tag)) return std::move(*out);
    DLB_ENSURE(can_still_arrive(source),
               "recv would block forever: source terminated or crashed "
               "with no matching message queued");
    if (backoff.spinning())
      backoff.wait();
    else
      pump(opts_.heartbeat);
  }
}

std::optional<MpMessage> SocketTransport::recv_until(
    int source, int tag, std::chrono::steady_clock::time_point deadline) {
  DLB_REQUIRE(source < size_, "invalid source");
  Backoff backoff;
  while (true) {
    if (auto out = take_match(inbox_, source, tag)) return out;
    pump(std::chrono::milliseconds{0});
    if (auto out = take_match(inbox_, source, tag)) return out;
    if (!can_still_arrive(source)) return std::nullopt;
    const auto now = Clock::now();
    if (now >= deadline) {
      ++recv_timeouts_;
      if (m_recv_timeouts_ != nullptr) m_recv_timeouts_->add();
      return std::nullopt;
    }
    if (backoff.spinning()) {
      backoff.wait();
      continue;
    }
    const auto remaining =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
    pump(std::max(std::chrono::milliseconds{1},
                  std::min(remaining, opts_.heartbeat)));
  }
}

std::optional<MpMessage> SocketTransport::try_recv(int source, int tag) {
  pump(std::chrono::milliseconds{0});
  return take_match(inbox_, source, tag);
}

void SocketTransport::close() {
  if (closed_) return;
  for (int r = 0; r < size_; ++r) {
    if (r == rank_) continue;
    Peer& p = peers_[static_cast<std::size_t>(r)];
    if (p.state == PeerState::Alive && p.fd >= 0)
      enqueue_frame(p, FrameKind::Goodbye, 0, nullptr, 0);
  }
  // Bounded best-effort drain: the Goodbye (and any data queued behind
  // a full kernel buffer) is a courtesy, not a guarantee — a crash is
  // precisely the absence of it.
  const auto flush_deadline = Clock::now() + std::chrono::milliseconds{1000};
  while (Clock::now() < flush_deadline) {
    bool tx_pending = false;
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) continue;
      const Peer& p = peers_[static_cast<std::size_t>(r)];
      if (p.fd >= 0 && p.tx_off < p.tx.size()) tx_pending = true;
    }
    if (!tx_pending) break;
    pump(std::chrono::milliseconds{1});
  }
  for (Peer& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!listen_path_.empty()) ::unlink(listen_path_.c_str());
  closed_ = true;
}

}  // namespace dlb
