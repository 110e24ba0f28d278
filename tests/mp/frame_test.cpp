// Wire-format tests for the socket transport's frames (mp/frame.hpp):
// roundtrip fidelity, stream reassembly, and — the part that guards the
// conservation ledger — corruption turning into *counted loss* instead
// of garbage messages or a desynced stream.
#include "mp/frame.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mp/payload.hpp"

namespace dlb {
namespace {

std::vector<std::uint8_t> encode_one(FrameKind kind, int source, int tag,
                                     const std::vector<std::int64_t>& words) {
  std::vector<std::uint8_t> out;
  FrameHeader h;
  h.kind = kind;
  h.source = source;
  h.tag = tag;
  h.words = static_cast<std::uint32_t>(words.size());
  frame::encode(out, h, words.data(), words.size());
  return out;
}

TEST(FrameTest, RoundtripInlinePayload) {
  const std::vector<std::int64_t> words = {1, -2, 3000000000LL, -4};
  const auto bytes = encode_one(FrameKind::Data, 3, 17, words);
  const auto d = frame::decode(bytes.data(), bytes.size());
  ASSERT_EQ(d.status, frame::DecodeStatus::Ok);
  EXPECT_EQ(d.consumed, bytes.size());
  EXPECT_EQ(d.header.kind, FrameKind::Data);
  EXPECT_EQ(d.header.source, 3);
  EXPECT_EQ(d.header.tag, 17);
  ASSERT_EQ(d.header.words, words.size());
  MpPayload payload;
  frame::read_words(d, payload);
  for (std::size_t i = 0; i < words.size(); ++i)
    EXPECT_EQ(payload[i], words[i]);
}

TEST(FrameTest, RoundtripSpillPayloadAndNegativeValues) {
  std::vector<std::int64_t> words;
  for (int i = 0; i < 100; ++i) words.push_back(-1000000007LL * i);
  const auto bytes = encode_one(FrameKind::Data, 0, -5, words);
  const auto d = frame::decode(bytes.data(), bytes.size());
  ASSERT_EQ(d.status, frame::DecodeStatus::Ok);
  EXPECT_EQ(d.header.tag, -5);  // tags are signed through the u32 trip
  MpPayload payload;
  frame::read_words(d, payload);
  ASSERT_EQ(payload.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i)
    EXPECT_EQ(payload[i], words[i]);
}

TEST(FrameTest, EveryPrefixAsksForMoreBytes) {
  const auto bytes = encode_one(FrameKind::Data, 1, 2, {7, 8, 9});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto d = frame::decode(bytes.data(), len);
    EXPECT_EQ(d.status, frame::DecodeStatus::NeedMore)
        << "prefix of " << len << " bytes";
    EXPECT_EQ(d.consumed, 0u);
  }
}

TEST(FrameTest, BackToBackFramesDecodeInOrder) {
  auto bytes = encode_one(FrameKind::Data, 1, 10, {11});
  const auto second = encode_one(FrameKind::Heartbeat, 2, 0, {});
  bytes.insert(bytes.end(), second.begin(), second.end());

  const auto d1 = frame::decode(bytes.data(), bytes.size());
  ASSERT_EQ(d1.status, frame::DecodeStatus::Ok);
  EXPECT_EQ(d1.header.tag, 10);
  const auto d2 = frame::decode(bytes.data() + d1.consumed,
                                bytes.size() - d1.consumed);
  ASSERT_EQ(d2.status, frame::DecodeStatus::Ok);
  EXPECT_EQ(d2.header.kind, FrameKind::Heartbeat);
  EXPECT_EQ(d1.consumed + d2.consumed, bytes.size());
}

TEST(FrameTest, FlippedPayloadByteFailsChecksumAndSkipsWholeFrame) {
  auto bytes = encode_one(FrameKind::Data, 1, 2, {42, 43});
  bytes[frame::kHeaderBytes + frame::kBodyFixedBytes] ^= 0x01;
  const auto d = frame::decode(bytes.data(), bytes.size());
  ASSERT_EQ(d.status, frame::DecodeStatus::Corrupt);
  // The full frame is consumed: checksummed length is trustworthy, so
  // resync lands exactly on the next frame boundary.
  EXPECT_EQ(d.consumed, bytes.size());
}

TEST(FrameTest, BadMagicSlidesOneByteAndResyncs) {
  const auto good = encode_one(FrameKind::Data, 4, 9, {5});
  std::vector<std::uint8_t> stream = {0xde, 0xad, 0xbe};  // line noise
  stream.insert(stream.end(), good.begin(), good.end());

  std::size_t at = 0;
  int corrupt = 0;
  while (true) {
    const auto d = frame::decode(stream.data() + at, stream.size() - at);
    if (d.status == frame::DecodeStatus::Corrupt) {
      ++corrupt;
      at += d.consumed;
      continue;
    }
    ASSERT_EQ(d.status, frame::DecodeStatus::Ok);
    EXPECT_EQ(d.header.source, 4);
    EXPECT_EQ(d.header.tag, 9);
    break;
  }
  EXPECT_EQ(corrupt, 3);  // one slide per noise byte
}

TEST(FrameTest, InsaneLengthIsCorruptNotAnAllocation) {
  auto bytes = encode_one(FrameKind::Data, 1, 2, {3});
  // Claim a body far beyond kMaxWords: must be rejected from the header
  // alone, never answered with NeedMore (which would buffer forever).
  bytes[4] = 0xff;
  bytes[5] = 0xff;
  bytes[6] = 0xff;
  bytes[7] = 0x7f;
  const auto d = frame::decode(bytes.data(), bytes.size());
  EXPECT_EQ(d.status, frame::DecodeStatus::Corrupt);
  EXPECT_EQ(d.consumed, 1u);
}

TEST(FrameTest, WordCountLengthMismatchIsCorrupt) {
  auto bytes = encode_one(FrameKind::Data, 1, 2, {3, 4});
  // Rewrite the in-body word count (body offset 9) from 2 to 1 and
  // repair the checksum so only the length consistency check can trip.
  std::uint8_t* body = bytes.data() + frame::kHeaderBytes;
  body[9] = 1;
  const std::uint32_t body_len = frame::get_u32(bytes.data() + 4);
  const std::uint32_t sum = frame::fnv1a(body, body_len);
  bytes[8] = static_cast<std::uint8_t>(sum);
  bytes[9] = static_cast<std::uint8_t>(sum >> 8);
  bytes[10] = static_cast<std::uint8_t>(sum >> 16);
  bytes[11] = static_cast<std::uint8_t>(sum >> 24);
  const auto d = frame::decode(bytes.data(), bytes.size());
  EXPECT_EQ(d.status, frame::DecodeStatus::Corrupt);
}

}  // namespace
}  // namespace dlb
