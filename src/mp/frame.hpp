// Wire format of the socket transport: length-prefixed, checksummed
// frames carrying the MpPayload word encoding.
//
// Stream sockets preserve order and bytes but not message boundaries,
// so every message travels as one frame:
//
//   offset  size  field
//   0       4     magic      0x444c4246 ("DLBF"), stream resync guard
//   4       4     body_len   bytes following the 12-byte header
//   8       4     checksum   FNV-1a over the body bytes
//   12      1     kind       Data / Hello / Heartbeat / Goodbye
//   13      4     source     sending rank (i32)
//   17      4     tag        message tag (i32)
//   21      4     words      payload word count (u32)
//   25      8w    payload    words, 64-bit little-endian
//
// All integers are little-endian on the wire.  The checksum is a
// correctness tripwire, not cryptography: a frame whose checksum (or
// magic, or bounds) fails to verify is *dropped and counted* — the
// transport treats corruption exactly like message loss, which the
// protocols above already survive (PR 3's declared-loss accounting).
//
// Encoding and decoding are allocation-aware: encode appends to a
// caller-owned byte vector (reused across sends) and decode parses in
// place from the receive buffer without copying the payload twice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mp/payload.hpp"

namespace dlb {

enum class FrameKind : std::uint8_t {
  Data = 0,       // application message (source, tag, payload)
  Hello = 1,      // connection handshake; payload[0] = sender rank
  Heartbeat = 2,  // failure-detector keepalive, empty payload
  Goodbye = 3,    // clean termination announcement, empty payload
};

struct FrameHeader {
  FrameKind kind = FrameKind::Data;
  int source = -1;
  int tag = 0;
  std::uint32_t words = 0;
};

namespace frame {

inline constexpr std::uint32_t kMagic = 0x444c4246u;  // "DLBF"
inline constexpr std::size_t kHeaderBytes = 12;       // magic+len+checksum
inline constexpr std::size_t kBodyFixedBytes = 13;    // kind+source+tag+words
/// Upper bound on payload words per frame — far above any protocol
/// message, low enough that a corrupted length cannot ask the receiver
/// to buffer gigabytes before the checksum verdict.
inline constexpr std::uint32_t kMaxWords = 1u << 20;

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// FNV-1a over `len` bytes — tiny, dependency-free, good enough to
/// catch truncation, bit rot and framing bugs.
inline std::uint32_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

/// Appends one complete frame to `out`.
inline void encode(std::vector<std::uint8_t>& out, const FrameHeader& header,
                   const std::int64_t* words, std::size_t count) {
  const std::size_t body_len = kBodyFixedBytes + count * 8;
  const std::size_t body_at = out.size() + kHeaderBytes;
  put_u32(out, kMagic);
  put_u32(out, static_cast<std::uint32_t>(body_len));
  put_u32(out, 0);  // checksum backpatched below
  out.push_back(static_cast<std::uint8_t>(header.kind));
  put_u32(out, static_cast<std::uint32_t>(header.source));
  put_u32(out, static_cast<std::uint32_t>(header.tag));
  put_u32(out, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i)
    put_u64(out, static_cast<std::uint64_t>(words[i]));
  const std::uint32_t sum = fnv1a(out.data() + body_at, body_len);
  out[body_at - 4] = static_cast<std::uint8_t>(sum);
  out[body_at - 3] = static_cast<std::uint8_t>(sum >> 8);
  out[body_at - 2] = static_cast<std::uint8_t>(sum >> 16);
  out[body_at - 1] = static_cast<std::uint8_t>(sum >> 24);
}

enum class DecodeStatus {
  NeedMore,   // buffer holds a frame prefix; read more bytes
  Ok,         // one frame decoded; `consumed` bytes may be discarded
  Corrupt,    // bad magic/length/checksum; `consumed` bytes skipped
};

struct Decoded {
  DecodeStatus status = DecodeStatus::NeedMore;
  std::size_t consumed = 0;
  FrameHeader header;
  const std::uint8_t* words = nullptr;  // into the input buffer
};

/// Attempts to decode one frame from the front of [data, data+len).
/// On Corrupt the caller should drop `consumed` bytes (resync will
/// re-attempt at the next byte) and count the event.
inline Decoded decode(const std::uint8_t* data, std::size_t len) {
  Decoded d;
  if (len < kHeaderBytes) return d;
  if (get_u32(data) != kMagic) {
    d.status = DecodeStatus::Corrupt;
    d.consumed = 1;  // slide one byte: resync on the next magic
    return d;
  }
  const std::uint32_t body_len = get_u32(data + 4);
  if (body_len < kBodyFixedBytes ||
      body_len > kBodyFixedBytes + std::size_t{kMaxWords} * 8) {
    d.status = DecodeStatus::Corrupt;
    d.consumed = 1;
    return d;
  }
  if (len < kHeaderBytes + body_len) return d;  // NeedMore
  const std::uint8_t* body = data + kHeaderBytes;
  if (fnv1a(body, body_len) != get_u32(data + 8)) {
    d.status = DecodeStatus::Corrupt;
    d.consumed = kHeaderBytes + body_len;
    return d;
  }
  const std::uint32_t words = get_u32(body + 9);
  if (kBodyFixedBytes + std::size_t{words} * 8 != body_len) {
    d.status = DecodeStatus::Corrupt;
    d.consumed = kHeaderBytes + body_len;
    return d;
  }
  d.status = DecodeStatus::Ok;
  d.consumed = kHeaderBytes + body_len;
  d.header.kind = static_cast<FrameKind>(body[0]);
  d.header.source = static_cast<int>(get_u32(body + 1));
  d.header.tag = static_cast<int>(get_u32(body + 5));
  d.header.words = words;
  d.words = body + kBodyFixedBytes;
  return d;
}

/// Copies a decoded frame's words into a payload.  Kept out of decode()
/// so header-only peeks stay free.
inline void read_words(const Decoded& d, MpPayload& payload) {
  // Words are 8-byte little-endian but possibly unaligned in the rx
  // buffer; stage through a small stack array for the aligned assign.
  std::int64_t stack[MpPayload::kInlineWords];
  if (d.header.words <= MpPayload::kInlineWords) {
    for (std::uint32_t i = 0; i < d.header.words; ++i)
      stack[i] = static_cast<std::int64_t>(get_u64(d.words + i * 8));
    payload.assign(stack, d.header.words);
    return;
  }
  std::vector<std::int64_t> heap(d.header.words);
  for (std::uint32_t i = 0; i < d.header.words; ++i)
    heap[i] = static_cast<std::int64_t>(get_u64(d.words + i * 8));
  payload.assign(heap.data(), d.header.words);
}

}  // namespace frame
}  // namespace dlb
