// Allocation budget of a realization's set-up: building a workload and
// compiling its ActiveSchedule take a fixed handful of heap blocks,
// however many processors the workload has.
//
// A workload stores its phases flat (one array plus one offset per
// processor), and the schedule compile sizes its lists once from the
// phase count, so each count below is a constant.  A per-processor phase
// list would make the build count grow with n (150 blocks for the
// 64-processor §7 workload, 1031 for serving at n = 1024).
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/alloc.hpp"
#include "support/rng.hpp"
#include "workload/schedule.hpp"
#include "workload/serving.hpp"
#include "workload/workload.hpp"

namespace dlb {
namespace {

// The phase array and the offsets (a short name fits the string's
// inline buffer).
constexpr std::uint64_t kBuildBudget = 2;
// The flat form plus the serving build's scratch (the per-processor
// tally and boost, the flash-crowd list and its processor set) and its
// name.
constexpr std::uint64_t kServingBuildBudget = 7;
// Two bucket-count arrays, the compiled phases and the add and remove
// lists.
constexpr std::uint64_t kCompileBudget = 5;

// Allocations made by one ActiveSchedule compile of `workload`.
std::uint64_t compile_allocs(const Workload& workload) {
  obs::AllocPhase phase;
  phase.rebase();
  const ActiveSchedule schedule(workload);
  const std::uint64_t count = phase.delta().count;
  EXPECT_GT(schedule.compiled_phases(), 0u);
  return count;
}

TEST(SetupAllocBudget, PaperBenchmarkDoesNotGrowWithN) {
  for (std::uint32_t n : {64u, 1024u}) {
    Rng rng(7);
    obs::AllocPhase phase;
    phase.rebase();
    const Workload wl =
        Workload::paper_benchmark(n, 500, WorkloadParams{}, rng);
    EXPECT_LE(phase.delta().count, kBuildBudget) << "n=" << n;
    EXPECT_LE(compile_allocs(wl), kCompileBudget) << "n=" << n;
  }
}

TEST(SetupAllocBudget, ServingDoesNotGrowWithN) {
  for (std::uint32_t n : {1024u, 4096u}) {
    obs::AllocPhase phase;
    phase.rebase();
    const Workload wl =
        ServingWorkload::build(n, 200, ServingParams{}, 12345);
    EXPECT_LE(phase.delta().count, kServingBuildBudget) << "n=" << n;
    EXPECT_LE(compile_allocs(wl), kCompileBudget) << "n=" << n;
  }
}

TEST(SetupAllocBudget, SparseHotspotDoesNotGrowWithN) {
  for (std::uint32_t n : {1024u, 65536u}) {
    obs::AllocPhase phase;
    phase.rebase();
    const Workload wl = Workload::sparse_hotspot(n, 200, 16, 0.7, 0.3);
    EXPECT_LE(phase.delta().count, kBuildBudget) << "n=" << n;
    EXPECT_LE(compile_allocs(wl), kCompileBudget) << "n=" << n;
  }
}

}  // namespace
}  // namespace dlb
