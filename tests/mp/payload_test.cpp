#include "mp/payload.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "obs/alloc.hpp"

namespace dlb {
namespace {

std::vector<std::int64_t> iota_words(std::size_t n) {
  std::vector<std::int64_t> words(n);
  std::iota(words.begin(), words.end(), std::int64_t{1});
  return words;
}

TEST(MpPayloadTest, SmallPayloadsStayInline) {
  const auto words = iota_words(MpPayload::kInlineWords);
  MpPayload p(words.data(), words.size());
  EXPECT_FALSE(p.spilled());
  EXPECT_EQ(p.size(), words.size());
  EXPECT_TRUE(p == words);
}

TEST(MpPayloadTest, InlineAssignNeverAllocates) {
  const auto words = iota_words(MpPayload::kInlineWords);
  MpPayload p;
  obs::AllocPhase phase;
  phase.rebase();
  p.assign(words.data(), words.size());
  EXPECT_EQ(phase.delta().count, 0u);
  EXPECT_FALSE(p.spilled());
}

TEST(MpPayloadTest, OversizedPayloadSpills) {
  const auto words = iota_words(MpPayload::kInlineWords + 1);
  MpPayload p(words.data(), words.size());
  EXPECT_TRUE(p.spilled());
  EXPECT_GE(p.capacity(), words.size());
  EXPECT_TRUE(p == words);
}

TEST(MpPayloadTest, AssignReusesSpillStorageInPlace) {
  const auto big = iota_words(12);
  const auto smaller = iota_words(9);
  MpPayload p(big.data(), big.size());
  const std::int64_t* storage = p.data();
  obs::AllocPhase phase;
  phase.rebase();
  p.assign(smaller.data(), smaller.size());
  EXPECT_EQ(phase.delta().count, 0u);
  EXPECT_EQ(p.data(), storage);
  EXPECT_TRUE(p == smaller);
}

TEST(MpPayloadTest, ClearKeepsStorage) {
  const auto big = iota_words(10);
  MpPayload p(big.data(), big.size());
  const std::uint32_t cap = p.capacity();
  p.clear();
  EXPECT_TRUE(p.empty());
  EXPECT_TRUE(p.spilled());
  EXPECT_EQ(p.capacity(), cap);
}

TEST(MpPayloadTest, CopyAndMoveRoundTrip) {
  const auto big = iota_words(11);
  MpPayload original(big.data(), big.size());
  MpPayload copy(original);
  EXPECT_TRUE(copy == original);
  EXPECT_NE(copy.data(), original.data());  // deep copy

  const std::int64_t* storage = original.data();
  MpPayload moved(std::move(original));
  EXPECT_EQ(moved.data(), storage);  // spill buffer stolen, not copied
  EXPECT_TRUE(moved == big);
  EXPECT_TRUE(original.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(MpPayloadTest, EqualityComparesContents) {
  MpPayload a{1, 2, 3};
  MpPayload b{1, 2, 3};
  MpPayload c{1, 2, 4};
  MpPayload d{1, 2};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
  const auto big = iota_words(9);
  MpPayload spilled(big.data(), big.size());
  EXPECT_TRUE(spilled == big);  // inline/spill representation is invisible
}

}  // namespace
}  // namespace dlb
