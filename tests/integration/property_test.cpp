// Property sweep: the algorithm's invariants hold under every combination
// of parameters, workload shapes and seeds — checked *during* the run, not
// only at the end.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/system.hpp"
#include "metrics/imbalance.hpp"
#include "support/stats.hpp"

namespace dlb {
namespace {

struct PropertyCase {
  std::uint32_t n;
  double f;
  std::uint32_t delta;
  std::uint32_t borrow_cap;
  bool analysis_mode;
  std::string workload;
  std::uint64_t seed;
};

Workload make_workload(const std::string& kind, std::uint32_t n,
                       std::uint32_t horizon, Rng& rng) {
  if (kind == "paper")
    return Workload::paper_benchmark(n, horizon, WorkloadParams{}, rng);
  if (kind == "one-producer") return Workload::one_producer(n, horizon);
  if (kind == "uniform") return Workload::uniform(n, horizon, 0.6, 0.5);
  if (kind == "hotspot") return Workload::hotspot(n, horizon, 1, 0.9, 0.4);
  if (kind == "wave") return Workload::wave(n, horizon, 20);
  if (kind == "bursty") return Workload::bursty(n, horizon, 25, 0.8, 0.8);
  if (kind == "flip-flop")
    return Workload::flip_flop(n, horizon, 30, 0.8, 0.8);
  ADD_FAILURE() << "unknown workload kind " << kind;
  return Workload::uniform(n, horizon, 0.0, 0.0);
}

class SystemProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SystemProperty, InvariantsHoldThroughoutTheRun) {
  const auto& prm = GetParam();
  const std::uint32_t horizon = 250;
  BalancerConfig cfg;
  cfg.f = prm.f;
  cfg.delta = prm.delta;
  cfg.borrow_cap = prm.borrow_cap;
  cfg.analysis_mode = prm.analysis_mode;

  Rng wl_rng(prm.seed);
  const Workload wl = make_workload(prm.workload, prm.n, horizon, wl_rng);
  System sys(prm.n, cfg, prm.seed ^ 0xabcdef);

  std::vector<WorkEvent> events(prm.n);
  Rng ev_rng(prm.seed + 1);
  for (std::uint32_t t = 0; t < horizon; ++t) {
    for (std::uint32_t p = 0; p < prm.n; ++p)
      events[p] = wl.sample(p, t, ev_rng);
    sys.step(t, events);
    if (t % 25 == 0) sys.check_invariants();
  }
  sys.check_invariants();

  // Load never negative; conservation exact.
  std::int64_t total = 0;
  for (std::int64_t l : sys.loads()) {
    EXPECT_GE(l, 0);
    total += l;
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(sys.total_generated()) -
                       static_cast<std::int64_t>(sys.total_consumed()));
}

std::vector<PropertyCase> property_cases() {
  std::vector<PropertyCase> cases;
  std::uint64_t seed = 1;
  for (std::uint32_t n : {2u, 3u, 8u, 32u}) {
    for (double f : {1.0, 1.1, 1.8, 3.0}) {
      for (std::uint32_t delta : {1u, 4u}) {
        if (delta >= n) continue;
        for (std::uint32_t cap : {0u, 4u}) {
          cases.push_back(PropertyCase{n, f, delta, cap, false,
                                       seed % 2 ? "paper" : "uniform",
                                       seed});
          ++seed;
        }
      }
    }
  }
  // Workload-shape sweep at one representative parameter point.
  for (const char* kind : {"one-producer", "hotspot", "wave", "bursty",
                           "flip-flop"}) {
    cases.push_back(PropertyCase{16, 1.2, 2, 4, false, kind, seed++});
  }
  // Analysis-mode variants.
  cases.push_back(PropertyCase{16, 1.1, 2, 4, true, "paper", seed++});
  cases.push_back(PropertyCase{8, 1.5, 3, 8, true, "hotspot", seed++});
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& ti) {
  const auto& p = ti.param;
  std::string name = "n";
  name += std::to_string(p.n);
  name += "_f";
  name += std::to_string(static_cast<int>(p.f * 10));
  name += "_d";
  name += std::to_string(p.delta);
  name += "_C";
  name += std::to_string(p.borrow_cap);
  name += "_";
  name += p.workload;
  name += "_s";
  name += std::to_string(p.seed);
  for (char& c : name)
    if (c == '-') c = '_';
  return name + (p.analysis_mode ? "_am" : "");
}

INSTANTIATE_TEST_SUITE_P(Sweep, SystemProperty,
                         ::testing::ValuesIn(property_cases()), case_name);

// A second property: after any forced balancing operation the participants'
// real loads differ by at most one.
class ForcedBalanceProperty
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ForcedBalanceProperty, ParticipantsWithinOneAfterBalance) {
  const std::uint32_t delta = GetParam();
  const std::uint32_t n = 12;
  BalancerConfig cfg;
  cfg.f = 100.0;  // disable automatic triggers beyond the first packet
  cfg.delta = delta;
  System sys(n, cfg, 555 + delta);
  // Build a deliberately lumpy state.
  Rng rng(99);
  for (std::uint32_t p = 0; p < n; ++p) {
    const auto packets = rng.below(50);
    for (std::uint64_t i = 0; i < packets; ++i) sys.generate(p);
  }
  const std::int64_t before = sys.total_load();
  // With delta == n-1, a forced balance flattens everything to ±1.
  if (delta == n - 1) {
    sys.force_balance(0);
    const auto loads = sys.loads();
    const auto minmax = std::minmax_element(loads.begin(), loads.end());
    EXPECT_LE(*minmax.second - *minmax.first, 1);
  } else {
    sys.force_balance(0);
  }
  EXPECT_EQ(sys.total_load(), before);
  sys.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, ForcedBalanceProperty,
                         ::testing::Values(1u, 2u, 4u, 11u));

// A third property: the recorder loads snapshot is delta-maintained
// (System::touch_load updates loads_cache_ at every real-load mutation
// instead of rebuilding), so the vector handed to on_loads at the final
// step must equal a from-scratch loads() rebuild.  The sweep leans on
// the paths that mutate *other* processors' loads behind p's back —
// settlements, remote exchanges, empty-generator resolutions under a
// tiny borrow_cap — and covers both recorder-capable step drivers.
class LastLoadsRecorder final : public Recorder {
 public:
  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override {
    (void)t;
    last_ = loads;  // copy: the caller reuses the buffer across steps
    ++calls_;
  }
  const std::vector<std::int64_t>& last() const { return last_; }
  std::uint64_t calls() const { return calls_; }

 private:
  std::vector<std::int64_t> last_;
  std::uint64_t calls_ = 0;
};

struct LoadsCacheCase {
  std::uint32_t n;
  double f;
  std::uint32_t delta;
  std::uint32_t borrow_cap;
  bool analysis_mode;
  std::string workload;
  std::string driver;
  std::uint64_t seed;
};

class LoadsCacheProperty
    : public ::testing::TestWithParam<LoadsCacheCase> {};

TEST_P(LoadsCacheProperty, DeltaMaintainedSnapshotMatchesFullRebuild) {
  const auto& prm = GetParam();
  const std::uint32_t horizon = 200;
  BalancerConfig cfg;
  cfg.f = prm.f;
  cfg.delta = prm.delta;
  cfg.borrow_cap = prm.borrow_cap;
  cfg.analysis_mode = prm.analysis_mode;

  Rng wl_rng(prm.seed);
  const Workload wl = make_workload(prm.workload, prm.n, horizon, wl_rng);
  System sys(prm.n, cfg, prm.seed * 7919 + 1);
  LastLoadsRecorder recorder;
  sys.attach_recorder(&recorder);
  if (prm.driver == "run") {
    sys.run(wl);
  } else {
    sys.run_reference(wl);
  }
  ASSERT_EQ(recorder.calls(), horizon);
  // loads() rebuilds from the ledgers; the recorder saw the incremental
  // cache.  Any divergence means a mutation path missed touch_load.
  EXPECT_EQ(recorder.last(), sys.loads());
  sys.check_invariants();
}

std::vector<LoadsCacheCase> loads_cache_cases() {
  std::vector<LoadsCacheCase> cases;
  std::uint64_t seed = 101;
  for (const char* driver : {"run", "run_reference"}) {
    // Consume-heavy uniform demand with borrow_cap 1 maximizes the
    // settlement / remote-exchange traffic that touches remote loads.
    cases.push_back({8, 1.1, 2, 1, false, "uniform", driver, seed++});
    cases.push_back({8, 1.1, 2, 1, true, "uniform", driver, seed++});
    cases.push_back({16, 1.2, 3, 2, false, "hotspot", driver, seed++});
    cases.push_back({32, 1.5, 1, 0, false, "paper", driver, seed++});
  }
  return cases;
}

std::string loads_cache_case_name(
    const ::testing::TestParamInfo<LoadsCacheCase>& ti) {
  const auto& p = ti.param;
  std::string name = p.driver;
  name += "_n";
  name += std::to_string(p.n);
  name += "_C";
  name += std::to_string(p.borrow_cap);
  name += "_";
  name += p.workload;
  name += "_s";
  name += std::to_string(p.seed);
  for (char& c : name)
    if (c == '-') c = '_';
  return name + (p.analysis_mode ? "_am" : "");
}

INSTANTIATE_TEST_SUITE_P(DriverSweep, LoadsCacheProperty,
                         ::testing::ValuesIn(loads_cache_cases()),
                         loads_cache_case_name);

}  // namespace
}  // namespace dlb
