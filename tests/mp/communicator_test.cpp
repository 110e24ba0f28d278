#include "mp/communicator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

TEST(Communicator, PingPong) {
  World world(2);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, {123, 456});
      const MpMessage reply = comm.recv(1, 8);
      EXPECT_EQ(reply.payload, (std::vector<std::int64_t>{579}));
    } else {
      const MpMessage msg = comm.recv(0, 7);
      EXPECT_EQ(msg.source, 0);
      EXPECT_EQ(msg.tag, 7);
      comm.send(0, 8, {msg.payload[0] + msg.payload[1]});
    }
  });
}

TEST(Communicator, AnySourceAndAnyTag) {
  World world(3);
  world.launch([](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send(0, comm.rank(), {comm.rank()});
    } else {
      std::int64_t sum = 0;
      for (int i = 0; i < 2; ++i) {
        const MpMessage msg = comm.recv(-1, -1);
        sum += msg.payload[0];
      }
      EXPECT_EQ(sum, 3);
    }
  });
}

TEST(Communicator, TagFilteringPreservesOrder) {
  World world(2);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, /*tag=*/1, {10});
      comm.send(1, /*tag=*/2, {20});
      comm.send(1, /*tag=*/1, {11});
    } else {
      // Receive tag 2 first although it was sent second.
      EXPECT_EQ(comm.recv(0, 2).payload[0], 20);
      EXPECT_EQ(comm.recv(0, 1).payload[0], 10);
      EXPECT_EQ(comm.recv(0, 1).payload[0], 11);
    }
  });
}

TEST(Communicator, TryRecvDoesNotBlock) {
  World world(2);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_FALSE(comm.try_recv().has_value());
      comm.barrier();          // rank 1 sends only after the barrier
      const auto msg = comm.recv(1, 5);
      EXPECT_EQ(msg.payload[0], 99);
    } else {
      comm.barrier();
      comm.send(0, 5, {99});
    }
  });
}

TEST(Communicator, CollectivesComputeCorrectly) {
  World world(5);
  world.launch([](Comm& comm) {
    const auto r = static_cast<std::int64_t>(comm.rank());
    EXPECT_EQ(comm.allreduce_sum(r), 0 + 1 + 2 + 3 + 4);
    EXPECT_EQ(comm.allreduce_min(10 - r), 6);
    EXPECT_EQ(comm.allreduce_max(10 - r), 10);
    EXPECT_EQ(comm.broadcast(r * 100, 3), 300);
    const auto gathered = comm.allgather(r * r);
    ASSERT_EQ(gathered.size(), 5u);
    for (int i = 0; i < 5; ++i)
      EXPECT_EQ(gathered[static_cast<std::size_t>(i)], i * i);
  });
}

TEST(Communicator, ManyCollectiveRoundsStayConsistent) {
  // Back-to-back collectives are the race-prone path (round turnover);
  // hammer it with values that differ every round.
  World world(4);
  world.launch([](Comm& comm) {
    for (std::int64_t round = 0; round < 500; ++round) {
      const std::int64_t mine = round * 10 + comm.rank();
      const auto all = comm.allgather(mine);
      for (int r = 0; r < 4; ++r) {
        ASSERT_EQ(all[static_cast<std::size_t>(r)], round * 10 + r)
            << "round " << round;
      }
    }
  });
}

TEST(Communicator, BarrierSynchronizes) {
  World world(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  world.launch([&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all four arrivals.
    if (before.load() != 4) violated.store(true);
    (void)comm;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Communicator, ExceptionsPropagateToLauncher) {
  World world(3);
  EXPECT_THROW(world.launch([](Comm& comm) {
    // Only rank 1 throws; barriers are avoided so the others finish.
    if (comm.rank() == 1) throw contract_error("rank 1 exploded");
  }),
               contract_error);
}

TEST(Communicator, WorldIsReusableAcrossLaunches) {
  World world(2);
  for (int iteration = 0; iteration < 3; ++iteration) {
    world.launch([iteration](Comm& comm) {
      const std::int64_t total =
          comm.allreduce_sum(comm.rank() + iteration);
      EXPECT_EQ(total, 1 + 2 * iteration);
    });
  }
}

TEST(Communicator, ValidatesArguments) {
  World world(2);
  EXPECT_THROW(World(0), contract_error);
  world.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send(5, 0, {}), contract_error);
      EXPECT_THROW(comm.broadcast(1, 9), contract_error);
    }
    comm.barrier();
  });
}

TEST(Communicator, RandomizedTrafficConserves) {
  // Every rank sends random token amounts around a ring for several
  // rounds; the global token count must be conserved.
  const int n = 4;
  World world(n);
  world.launch([n](Comm& comm) {
    Rng rng(static_cast<std::uint64_t>(comm.rank()) + 77);
    std::int64_t tokens = 100;
    for (int round = 0; round < 50; ++round) {
      const std::int64_t give =
          static_cast<std::int64_t>(rng.below(
              static_cast<std::uint64_t>(tokens) + 1));
      tokens -= give;
      comm.send((comm.rank() + 1) % n, round, {give});
      const MpMessage msg =
          comm.recv((comm.rank() + n - 1) % n, round);
      tokens += msg.payload[0];
      const std::int64_t total = comm.allreduce_sum(tokens);
      ASSERT_EQ(total, 100 * n) << "round " << round;
    }
  });
}

}  // namespace
}  // namespace dlb
