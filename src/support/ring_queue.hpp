// Growable single-threaded ring queue: deque semantics, vector storage.
//
// The mailbox queues (mp::World::Mailbox, the async engine's per-shard
// FIFOs) oscillate between empty and a small bounded depth in steady
// state.  std::deque keeps at least one heap chunk alive per queue and
// allocates fresh ones when its internal map grows;
// RingQueue instead keeps a single power-of-two buffer that is reused
// forever — after the queue has once reached its high-water depth, no
// push or pop ever touches the allocator again, which is the property
// the zero-allocation gate (obs/alloc.hpp) asserts.
//
// Semantics: FIFO push_back/front/pop_front plus random access by
// logical index and middle erase (used by the mp mailbox's filtered
// receive).  Not thread-safe; callers lock around it exactly as they did
// around std::deque.  T must be default-constructible and movable; slots
// are recycled by move-assignment, so a T that itself pools its storage
// (e.g. MpMessage's payload) keeps that storage through the recycle.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace dlb {

template <typename T>
class RingQueue {
 public:
  RingQueue() = default;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Ensures capacity for at least `n` elements without reallocation.
  void reserve(std::size_t n) {
    if (n > slots_.size()) grow(round_up_pow2(n));
  }

  void push_back(T value) {
    if (count_ == slots_.size()) grow(slots_.empty() ? kMinCapacity
                                                     : 2 * slots_.size());
    slots_[index(count_)] = std::move(value);
    ++count_;
  }

  T& front() {
    DLB_REQUIRE(count_ > 0, "front() on empty RingQueue");
    return slots_[head_];
  }
  const T& front() const {
    DLB_REQUIRE(count_ > 0, "front() on empty RingQueue");
    return slots_[head_];
  }

  T& operator[](std::size_t i) {
    DLB_REQUIRE(i < count_, "RingQueue index out of range");
    return slots_[index(i)];
  }
  const T& operator[](std::size_t i) const {
    DLB_REQUIRE(i < count_, "RingQueue index out of range");
    return slots_[index(i)];
  }

  /// Removes and returns the oldest element.  The vacated slot keeps its
  /// moved-from value until overwritten (storage reuse, not a leak).
  T pop_front() {
    DLB_REQUIRE(count_ > 0, "pop_front() on empty RingQueue");
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask();
    --count_;
    return out;
  }

  /// Removes the element at logical index `i`, preserving the order of
  /// the rest.  Shifts whichever side is shorter: O(min(i, size-i))
  /// moves, so matching the front (the common mailbox case) stays O(1).
  void erase(std::size_t i) {
    DLB_REQUIRE(i < count_, "RingQueue erase out of range");
    if (i < count_ - i - 1) {
      for (std::size_t k = i; k > 0; --k)
        slots_[index(k)] = std::move(slots_[index(k - 1)]);
      head_ = (head_ + 1) & mask();
    } else {
      for (std::size_t k = i + 1; k < count_; ++k)
        slots_[index(k - 1)] = std::move(slots_[index(k)]);
    }
    --count_;
  }

  /// Drops every element; keeps the storage.
  void clear() {
    for (std::size_t k = 0; k < count_; ++k) slots_[index(k)] = T{};
    head_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t index(std::size_t i) const { return (head_ + i) & mask(); }

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t c = kMinCapacity;
    while (c < n) c *= 2;
    return c;
  }

  void grow(std::size_t new_capacity) {
    std::vector<T> fresh(new_capacity);
    for (std::size_t k = 0; k < count_; ++k)
      fresh[k] = std::move(slots_[index(k)]);
    slots_.swap(fresh);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace dlb
