#include "workload/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "flat_workload.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/serving.hpp"
#include "workload/workload.hpp"

namespace dlb {
namespace {

Workload make(std::uint32_t processors, std::uint32_t horizon,
              const std::vector<std::vector<Phase>>& phases) {
  return flat_workload(processors, horizon, phases);
}

// A small serving scenario: every processor's phases start on the same
// segment boundaries, so each step's boundary bucket holds many
// processors at once.
Workload serving(std::uint32_t processors, std::uint32_t horizon) {
  ServingParams params;
  params.sessions = 50000;
  params.segment_steps = 20;
  return ServingWorkload::build(processors, horizon, params, 77);
}

std::vector<std::uint32_t> active_ids(
    const std::vector<ActiveSchedule::Entry>& entries) {
  std::vector<std::uint32_t> ids;
  for (const auto& e : entries) ids.push_back(e.proc);
  return ids;
}

TEST(ActiveSchedule, TracksPhaseBoundaries) {
  // p0: [0,2], p1: [2,4], p2: no phases at all.
  const Workload wl = make(3, 6,
                           {{Phase{0, 2, 0.5, 0.5}},
                            {Phase{2, 4, 0.5, 0.5}},
                            {}});
  ActiveSchedule sched(wl);
  EXPECT_EQ(sched.compiled_phases(), 2u);
  EXPECT_EQ(active_ids(sched.advance(0)), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(active_ids(sched.advance(1)), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(active_ids(sched.advance(2)), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(active_ids(sched.advance(3)), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(active_ids(sched.advance(4)), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(active_ids(sched.advance(5)), (std::vector<std::uint32_t>{}));
}

TEST(ActiveSchedule, BackToBackPhasesHandOff) {
  const Workload wl =
      make(1, 4, {{Phase{0, 1, 0.3, 0.0}, Phase{2, 3, 0.9, 0.0}}});
  ActiveSchedule sched(wl);
  const auto& at0 = sched.advance(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_DOUBLE_EQ(at0[0].phase->generate_prob, 0.3);
  sched.advance(1);
  const auto& at2 = sched.advance(2);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_DOUBLE_EQ(at2[0].phase->generate_prob, 0.9);
}

TEST(ActiveSchedule, SilentPhasesAreElided) {
  // A fully silent phase draws no randomness and fires no events, so the
  // compiler drops it: the processor never shows up as active.
  const Workload wl = make(2, 4,
                           {{Phase{0, 3, 0.0, 0.0}},
                            {Phase{1, 2, 0.4, 0.0}}});
  ActiveSchedule sched(wl);
  EXPECT_EQ(sched.compiled_phases(), 1u);
  EXPECT_TRUE(sched.advance(0).empty());
  EXPECT_EQ(active_ids(sched.advance(1)), (std::vector<std::uint32_t>{1}));
}

TEST(ActiveSchedule, ResetRewindsToStepZero) {
  const Workload wl = make(2, 3, {{Phase{1, 2, 0.5, 0.5}}, {}});
  ActiveSchedule sched(wl);
  sched.advance(0);
  sched.advance(1);
  sched.reset();
  EXPECT_TRUE(sched.advance(0).empty());
  EXPECT_EQ(active_ids(sched.advance(1)), (std::vector<std::uint32_t>{0}));
}

TEST(ActiveSchedule, OutOfOrderAdvanceThrows) {
  const Workload wl = Workload::uniform(2, 4, 0.5, 0.5);
  ActiveSchedule sched(wl);
  sched.advance(0);
  EXPECT_THROW(sched.advance(2), contract_error);
}

// The bit-identity foundation: sampling only the scheduled processors
// consumes exactly the same RNG stream as sampling all of them, for any
// phase layout — including sparse ones where most processors are idle.
TEST(ActiveSchedule, BatchedSamplingMatchesDenseSampling) {
  Rng layout(99);
  const WorkloadParams params;
  const std::vector<Workload> workloads = {
      Workload::paper_benchmark(16, 600, params, layout),
      Workload::sparse_hotspot(64, 200, 5, 0.7, 0.3),
      Workload::wave(12, 120, 3),
      Workload::one_producer(8, 50),
      serving(32, 150),
  };
  for (const Workload& wl : workloads) {
    Rng dense_rng(4242);
    Rng batched_rng(4242);
    ActiveSchedule sched(wl);
    for (std::uint32_t t = 0; t < wl.horizon(); ++t) {
      std::vector<std::pair<std::uint32_t, WorkEvent>> dense;
      for (std::uint32_t p = 0; p < wl.processors(); ++p) {
        const WorkEvent ev = wl.sample(p, t, dense_rng);
        if (ev.generate || ev.consume) dense.emplace_back(p, ev);
      }
      std::vector<std::pair<std::uint32_t, WorkEvent>> batched;
      for (const auto& e : sched.advance(t)) {
        WorkEvent ev;
        ev.generate = batched_rng.bernoulli(e.phase->generate_prob);
        ev.consume = batched_rng.bernoulli(e.phase->consume_prob);
        if (ev.generate || ev.consume) batched.emplace_back(e.proc, ev);
      }
      ASSERT_EQ(dense.size(), batched.size()) << wl.name() << " t=" << t;
      for (std::size_t i = 0; i < dense.size(); ++i) {
        EXPECT_EQ(dense[i].first, batched[i].first);
        EXPECT_EQ(dense[i].second.generate, batched[i].second.generate);
        EXPECT_EQ(dense[i].second.consume, batched[i].second.consume);
      }
    }
    EXPECT_EQ(dense_rng.state(), batched_rng.state()) << wl.name();
  }
}

// The async engine's ownership law: the strided schedules over all
// offsets partition the full schedule — every (step, processor) entry
// appears in exactly the schedule of offset p mod stride.
TEST(ActiveSchedule, StridedSchedulesPartitionTheFullSchedule) {
  Rng layout(5);
  const WorkloadParams params;
  const std::vector<Workload> workloads = {
      Workload::paper_benchmark(24, 150, params, layout),
      Workload::sparse_hotspot(64, 100, 7, 0.7, 0.3),
      serving(40, 120),
  };
  for (const Workload& wl : workloads) {
    for (std::uint32_t stride : {1u, 3u, 4u}) {
      ActiveSchedule full(wl);
      std::vector<ActiveSchedule> strided;
      for (std::uint32_t offset = 0; offset < stride; ++offset)
        strided.push_back(ActiveSchedule::strided(wl, offset, stride));
      for (std::uint32_t t = 0; t < wl.horizon(); ++t) {
        std::vector<std::uint32_t> merged;
        for (ActiveSchedule& sched : strided)
          for (const auto& e : sched.advance(t)) {
            EXPECT_EQ(e.proc % stride,
                      static_cast<std::uint32_t>(&sched - strided.data()));
            merged.push_back(e.proc);
          }
        std::sort(merged.begin(), merged.end());
        ASSERT_EQ(merged, active_ids(full.advance(t)))
            << wl.name() << " stride=" << stride << " t=" << t;
      }
    }
  }
}

TEST(ActiveSchedule, StridedValidatesOffsetAndStride) {
  const Workload wl = Workload::uniform(8, 4, 0.5, 0.5);
  EXPECT_THROW(ActiveSchedule::strided(wl, 0, 0), contract_error);
  EXPECT_THROW(ActiveSchedule::strided(wl, 3, 3), contract_error);
}

}  // namespace
}  // namespace dlb
