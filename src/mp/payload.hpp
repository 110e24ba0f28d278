// Small-buffer message payload.
//
// The paper's protocol messages carry a handful of 64-bit words
// (Invite/Accept/Assign are 1–3 words), yet MpMessage used to hold a
// std::vector — one heap allocation per send and one free per receive,
// pure allocator overhead on the transport hot path.  MpPayload stores
// up to kInlineWords words inline (sizeof(MpMessage) is exactly one
// cache line), so send/recv/drain of every production message — the
// widest, a transaction message, is 3 words — never touch the allocator
// (DESIGN.md §11).  A wider payload (a test literal, a hand-built
// frame) spills to a plain heap buffer that it frees on drop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <vector>

#include "support/check.hpp"

namespace dlb {

namespace detail {
/// Header of a spilled payload buffer; the words follow it in the same
/// allocation (8-aligned: the header is a multiple of 8 bytes).
struct SpillBuf {
  std::uint64_t capacity;  // in words

  std::int64_t* words() { return reinterpret_cast<std::int64_t*>(this + 1); }
  const std::int64_t* words() const {
    return reinterpret_cast<const std::int64_t*>(this + 1);
  }

  static SpillBuf* make(std::uint32_t capacity) {
    void* raw =
        ::operator new(sizeof(SpillBuf) + capacity * sizeof(std::int64_t));
    SpillBuf* buf = static_cast<SpillBuf*>(raw);
    buf->capacity = capacity;
    return buf;
  }
  static void free(SpillBuf* buf) { ::operator delete(buf); }
};
}  // namespace detail

/// The payload of one point-to-point message: a short array of 64-bit
/// words, inline up to kInlineWords, heap-spilled beyond.
class MpPayload {
 public:
  static constexpr std::uint32_t kInlineWords = 6;

  MpPayload() = default;
  MpPayload(std::initializer_list<std::int64_t> words) {
    assign(words.begin(), words.size());
  }
  MpPayload(const std::int64_t* words, std::size_t count) {
    assign(words, count);
  }

  MpPayload(const MpPayload& o) { assign(o.data(), o.size()); }
  MpPayload& operator=(const MpPayload& o) {
    if (this != &o) assign(o.data(), o.size());
    return *this;
  }

  MpPayload(MpPayload&& o) noexcept : size_(o.size_), spilled_(o.spilled_) {
    u_ = o.u_;
    o.size_ = 0;
    o.spilled_ = 0;
  }
  MpPayload& operator=(MpPayload&& o) noexcept {
    if (this != &o) {
      drop();
      size_ = o.size_;
      spilled_ = o.spilled_;
      u_ = o.u_;
      o.size_ = 0;
      o.spilled_ = 0;
    }
    return *this;
  }

  ~MpPayload() { drop(); }

  /// Replaces the contents.  Reuses the current storage when it fits;
  /// otherwise allocates a spill buffer (the next power of two >= 8
  /// words).
  void assign(const std::int64_t* words, std::size_t count) {
    DLB_REQUIRE(count <= UINT32_MAX, "payload too large");
    const auto n = static_cast<std::uint32_t>(count);
    if (n > capacity()) {
      drop();
      std::uint32_t cap = 8;
      while (cap < n) cap *= 2;
      u_.spill = detail::SpillBuf::make(cap);
      spilled_ = 1;
    }
    std::int64_t* dst = mutable_data();
    for (std::uint32_t i = 0; i < n; ++i) dst[i] = words[i];
    size_ = n;
  }

  /// Empties the payload but keeps the storage (spill included) for the
  /// next assign — the in-place reuse path for recycled message slots.
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint32_t capacity() const {
    return spilled_ ? static_cast<std::uint32_t>(u_.spill->capacity)
                    : kInlineWords;
  }
  bool spilled() const { return spilled_ != 0; }

  const std::int64_t* data() const {
    return spilled_ ? u_.spill->words() : u_.inline_words;
  }
  std::int64_t operator[](std::size_t i) const {
    DLB_REQUIRE(i < size_, "payload index out of range");
    return data()[i];
  }
  const std::int64_t* begin() const { return data(); }
  const std::int64_t* end() const { return data() + size_; }

 private:
  std::int64_t* mutable_data() {
    return spilled_ ? u_.spill->words() : u_.inline_words;
  }
  void drop() {
    if (spilled_) {
      detail::SpillBuf::free(u_.spill);
      spilled_ = 0;
    }
    size_ = 0;
  }

  std::uint32_t size_ = 0;
  std::uint32_t spilled_ = 0;
  union Storage {
    std::int64_t inline_words[kInlineWords];
    detail::SpillBuf* spill;
  } u_{};
};

inline bool operator==(const MpPayload& a, const MpPayload& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.data()[i] != b.data()[i]) return false;
  return true;
}
inline bool operator==(const MpPayload& a,
                       const std::vector<std::int64_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a.data()[i] != b[i]) return false;
  return true;
}
inline bool operator==(const std::vector<std::int64_t>& a,
                       const MpPayload& b) {
  return b == a;
}

static_assert(sizeof(MpPayload) == 56, "payload should stay compact");

}  // namespace dlb
