#include "support/ring_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

TEST(RingQueue, FifoRoundTrip) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back(1);
  q.push_back(2);
  q.push_back(3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front(), 1);
  EXPECT_EQ(q.pop_front(), 1);
  EXPECT_EQ(q.pop_front(), 2);
  EXPECT_EQ(q.pop_front(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, GrowsPastMinCapacityPreservingOrder) {
  RingQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 100u);
  EXPECT_GE(q.capacity(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop_front(), i);
}

TEST(RingQueue, WrapAroundReusesStorage) {
  RingQueue<int> q;
  // Prime past the head so subsequent pushes wrap.
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 6; ++i) q.pop_front();
  const std::size_t cap = q.capacity();
  // Many laps around the buffer: capacity must never change again.
  int next_in = 100;
  int next_out = 100;
  for (int lap = 0; lap < 50; ++lap) {
    for (int i = 0; i < 5; ++i) q.push_back(next_in++);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop_front(), next_out++);
  }
  EXPECT_EQ(q.capacity(), cap);
}

TEST(RingQueue, RandomAccessUsesLogicalIndices) {
  RingQueue<int> q;
  // Shift the head off zero first so logical != physical.
  for (int i = 0; i < 5; ++i) q.push_back(-1);
  for (int i = 0; i < 5; ++i) q.pop_front();
  for (int i = 0; i < 10; ++i) q.push_back(10 * i);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(q[i], static_cast<int>(10 * i));
}

TEST(RingQueue, EraseMatchesDequeOracle) {
  // Drive a RingQueue and a std::deque with the same random mixed
  // workload (push, pop, middle erase) across many wraparounds; the
  // contents must stay identical throughout.
  RingQueue<std::uint32_t> q;
  std::deque<std::uint32_t> oracle;
  Rng rng(7);
  std::uint32_t next = 0;
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t choice = rng.below(4);
    if (choice <= 1 || oracle.empty()) {  // bias towards pushes
      q.push_back(next);
      oracle.push_back(next);
      ++next;
    } else if (choice == 2) {
      EXPECT_EQ(q.pop_front(), oracle.front());
      oracle.pop_front();
    } else {
      const auto i = static_cast<std::size_t>(rng.below(oracle.size()));
      q.erase(i);
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(q.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(q.front(), oracle.front());
    }
  }
  for (std::size_t i = 0; i < oracle.size(); ++i) ASSERT_EQ(q[i], oracle[i]);
}

TEST(RingQueue, EraseShiftsTheShorterSide) {
  RingQueue<int> q;
  for (int i = 0; i < 9; ++i) q.push_back(i);  // forces a wrap at cap 8->16
  q.erase(1);  // near the front: shifts the front side
  q.erase(6);  // near the back: shifts the back side
  const int expected[] = {0, 2, 3, 4, 5, 6, 8};
  ASSERT_EQ(q.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(q[i], expected[i]);
}

TEST(RingQueue, ClearKeepsCapacity) {
  RingQueue<std::string> q;
  for (int i = 0; i < 20; ++i) q.push_back("payload-" + std::to_string(i));
  const std::size_t cap = q.capacity();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), cap);
  q.push_back("fresh");
  EXPECT_EQ(q.front(), "fresh");
}

TEST(RingQueue, SupportsMoveOnlyTypes) {
  RingQueue<std::unique_ptr<int>> q;
  for (int i = 0; i < 12; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 12; ++i) {
    auto p = q.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
}

TEST(RingQueue, ReserveAvoidsLaterGrowth) {
  RingQueue<int> q;
  q.reserve(100);
  const std::size_t cap = q.capacity();
  EXPECT_GE(cap, 100u);
  for (int i = 0; i < 100; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), cap);
}

TEST(RingQueue, FrontAndIndexGuardAgainstMisuse) {
  RingQueue<int> q;
  EXPECT_THROW(q.front(), contract_error);
  EXPECT_THROW(q.pop_front(), contract_error);
  q.push_back(1);
  EXPECT_THROW(q[1], contract_error);
  EXPECT_THROW(q.erase(1), contract_error);
}

}  // namespace
}  // namespace dlb
