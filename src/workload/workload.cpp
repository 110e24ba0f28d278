#include "workload/workload.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

namespace {

// Offsets of a workload whose first `active` processors hold one phase
// each and whose other processors are idle.
std::vector<std::uint32_t> leading_offsets(std::uint32_t processors,
                                           std::uint32_t active) {
  std::vector<std::uint32_t> offsets(std::size_t{processors} + 1);
  for (std::uint32_t p = 0; p <= processors; ++p)
    offsets[p] = std::min(p, active);
  return offsets;
}

// How many back-to-back windows of `window` steps cover [0, horizon):
// one processor's phase count in the windowed factories.
std::size_t windows(std::uint32_t horizon, std::uint32_t window) {
  return (std::size_t{horizon} + window - 1) / window;
}

}  // namespace

Workload::Workload(std::uint32_t processors, std::uint32_t horizon,
                   std::vector<Phase> phases,
                   std::vector<std::uint32_t> offsets, std::string name)
    : processors_(processors),
      horizon_(horizon),
      phases_(std::move(phases)),
      offsets_(std::move(offsets)),
      name_(std::move(name)) {
  DLB_REQUIRE(processors_ >= 1, "workload needs at least one processor");
  DLB_REQUIRE(horizon_ >= 1, "workload needs a positive horizon");
  DLB_REQUIRE(offsets_.size() == std::size_t{processors_} + 1,
              "one phase offset per processor plus the end required");
  DLB_REQUIRE(offsets_.front() == 0, "the first phase offset must be 0");
  DLB_REQUIRE(offsets_.back() == phases_.size(),
              "the last phase offset must be the phase count");
  // The offsets must not descend: a branch-free scan.  With the last
  // offset equal to the phase count, every phase then lies in exactly
  // one processor's run, and the phase pass moves a cursor to that run,
  // so the idle processors past the last phase cost it nothing.  A phase
  // must follow its predecessor unless it opens its run.
  bool descends = false;
  for (std::size_t p = 1; p < offsets_.size(); ++p)
    descends |= offsets_[p] < offsets_[p - 1];
  DLB_REQUIRE(!descends, "phase offsets must not descend");
  std::size_t run_end = 1;  // offsets_ index closing phase i's run
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    bool opens_run = i == 0;
    for (; offsets_[run_end] <= i; ++run_end) opens_run = true;
    const Phase& ph = phases_[i];
    DLB_REQUIRE(ph.start <= ph.end, "phase must have start <= end");
    DLB_REQUIRE(opens_run || ph.start > phases_[i - 1].end,
                "phases of a processor must be disjoint and sorted");
    DLB_REQUIRE(ph.generate_prob >= 0.0 && ph.generate_prob <= 1.0,
                "generate probability out of [0,1]");
    DLB_REQUIRE(ph.consume_prob >= 0.0 && ph.consume_prob <= 1.0,
                "consume probability out of [0,1]");
  }
}

const Phase* Workload::find_phase(std::uint32_t processor,
                                  std::uint32_t t) const {
  const std::span<const Phase> list = phases_of(processor);
  // Stateless lookup: phases are disjoint and sorted (checked by the
  // constructor), so the candidate is the first phase with end >= t.
  // Keeping this method free of writes makes concurrent sampling of one
  // shared Workload through the const API safe.
  const auto it = std::lower_bound(
      list.begin(), list.end(), t,
      [](const Phase& ph, std::uint32_t step) { return ph.end < step; });
  if (it != list.end() && it->start <= t) return &*it;
  return nullptr;
}

double Workload::generate_prob(std::uint32_t processor,
                               std::uint32_t t) const {
  const Phase* ph = find_phase(processor, t);
  return ph ? ph->generate_prob : 0.0;
}

double Workload::consume_prob(std::uint32_t processor,
                              std::uint32_t t) const {
  const Phase* ph = find_phase(processor, t);
  return ph ? ph->consume_prob : 0.0;
}

WorkEvent Workload::sample(std::uint32_t processor, std::uint32_t t,
                           Rng& rng) const {
  const Phase* ph = find_phase(processor, t);
  WorkEvent ev;
  if (ph == nullptr) return ev;
  ev.generate = rng.bernoulli(ph->generate_prob);
  ev.consume = rng.bernoulli(ph->consume_prob);
  return ev;
}

Workload Workload::paper_benchmark(std::uint32_t processors,
                                   std::uint32_t horizon,
                                   const WorkloadParams& params, Rng& rng) {
  DLB_REQUIRE(params.len_low >= 1 && params.len_low <= params.len_high,
              "phase length bounds inconsistent");
  // Room for each processor's expected phase count plus one: the total
  // seldom outgrows it, so the phases usually take one allocation.
  const std::uint32_t mean_len =
      static_cast<std::uint32_t>((std::uint64_t{params.len_low} +
                                  params.len_high) / 2);
  std::vector<Phase> phases;
  phases.reserve(std::size_t{processors} * (horizon / mean_len + 2));
  std::vector<std::uint32_t> offsets(std::size_t{processors} + 1, 0);
  for (std::uint32_t p = 0; p < processors; ++p) {
    std::uint32_t t = 0;
    while (t < horizon) {
      Phase ph;
      ph.start = t;
      const auto len = static_cast<std::uint32_t>(
          rng.range(params.len_low, params.len_high));
      ph.end = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          horizon - 1, std::uint64_t{t} + len - 1));
      ph.generate_prob = rng.uniform(params.g_low, params.g_high);
      ph.consume_prob = rng.uniform(params.c_low, params.c_high);
      phases.push_back(ph);
      t = ph.end + 1;
    }
    offsets[p + 1] = static_cast<std::uint32_t>(phases.size());
  }
  return Workload(processors, horizon, std::move(phases), std::move(offsets),
                  "paper-benchmark");
}

Workload Workload::one_producer(std::uint32_t processors,
                                std::uint32_t horizon) {
  return Workload(processors, horizon, {Phase{0, horizon - 1, 1.0, 0.0}},
                  leading_offsets(processors, 1), "one-producer");
}

Workload Workload::one_producer_consumer(std::uint32_t processors,
                                         std::uint32_t horizon, double g,
                                         double c) {
  return Workload(processors, horizon, {Phase{0, horizon - 1, g, c}},
                  leading_offsets(processors, 1), "one-producer-consumer");
}

Workload Workload::uniform(std::uint32_t processors, std::uint32_t horizon,
                           double g, double c) {
  return Workload(processors, horizon,
                  std::vector<Phase>(processors, Phase{0, horizon - 1, g, c}),
                  leading_offsets(processors, processors), "uniform");
}

Workload Workload::hotspot(std::uint32_t processors, std::uint32_t horizon,
                           std::uint32_t hot, double hot_g, double cold_c) {
  DLB_REQUIRE(hot >= 1 && hot <= processors, "hotspot count out of range");
  std::vector<Phase> phases(processors, Phase{0, horizon - 1, 0.0, cold_c});
  std::fill_n(phases.begin(), hot, Phase{0, horizon - 1, hot_g, 0.0});
  return Workload(processors, horizon, std::move(phases),
                  leading_offsets(processors, processors), "hotspot");
}

Workload Workload::sparse_hotspot(std::uint32_t processors,
                                  std::uint32_t horizon, std::uint32_t active,
                                  double g, double c) {
  DLB_REQUIRE(active >= 1 && active <= processors,
              "active count out of range");
  return Workload(processors, horizon,
                  std::vector<Phase>(active, Phase{0, horizon - 1, g, c}),
                  leading_offsets(processors, active), "sparse-hotspot");
}

Workload Workload::wave(std::uint32_t processors, std::uint32_t horizon,
                        std::uint32_t window) {
  DLB_REQUIRE(window >= 1, "wave window must be positive");
  std::vector<Phase> phases;
  phases.reserve(std::size_t{processors} * windows(horizon, window));
  std::vector<std::uint32_t> offsets(std::size_t{processors} + 1, 0);
  // Each processor is "hot" (generating) during a window that moves one
  // processor forward every `window` steps; outside its window it consumes.
  for (std::uint32_t p = 0; p < processors; ++p) {
    std::uint32_t t = 0;
    while (t < horizon) {
      const std::uint32_t active =
          static_cast<std::uint32_t>((t / window) % processors);
      Phase ph;
      ph.start = t;
      ph.end = std::min(horizon - 1, t + window - 1);
      if (active == p) {
        ph.generate_prob = 0.9;
        ph.consume_prob = 0.0;
      } else {
        ph.generate_prob = 0.0;
        ph.consume_prob = 0.3;
      }
      phases.push_back(ph);
      t = ph.end + 1;
    }
    offsets[p + 1] = static_cast<std::uint32_t>(phases.size());
  }
  return Workload(processors, horizon, std::move(phases), std::move(offsets),
                  "wave");
}

Workload Workload::bursty(std::uint32_t processors, std::uint32_t horizon,
                          std::uint32_t period, double g, double c) {
  DLB_REQUIRE(period >= 1, "burst period must be positive");
  std::vector<Phase> phases;
  phases.reserve(std::size_t{processors} * windows(horizon, period));
  std::vector<std::uint32_t> offsets(std::size_t{processors} + 1, 0);
  for (std::uint32_t p = 0; p < processors; ++p) {
    std::uint32_t t = 0;
    bool generating = true;
    while (t < horizon) {
      Phase ph;
      ph.start = t;
      ph.end = std::min(horizon - 1, t + period - 1);
      ph.generate_prob = generating ? g : 0.0;
      ph.consume_prob = generating ? 0.0 : c;
      phases.push_back(ph);
      t = ph.end + 1;
      generating = !generating;
    }
    offsets[p + 1] = static_cast<std::uint32_t>(phases.size());
  }
  return Workload(processors, horizon, std::move(phases), std::move(offsets),
                  "bursty");
}

Workload Workload::flip_flop(std::uint32_t processors, std::uint32_t horizon,
                             std::uint32_t period, double g, double c) {
  DLB_REQUIRE(period >= 1, "flip-flop period must be positive");
  std::vector<Phase> phases;
  phases.reserve(std::size_t{processors} * windows(horizon, period));
  std::vector<std::uint32_t> offsets(std::size_t{processors} + 1, 0);
  for (std::uint32_t p = 0; p < processors; ++p) {
    std::uint32_t t = 0;
    bool first_half = p < processors / 2;
    while (t < horizon) {
      const bool even_epoch = (t / period) % 2 == 0;
      const bool generating = (first_half == even_epoch);
      Phase ph;
      ph.start = t;
      ph.end = std::min(horizon - 1, t + period - 1);
      ph.generate_prob = generating ? g : 0.0;
      ph.consume_prob = generating ? 0.0 : c;
      phases.push_back(ph);
      t = ph.end + 1;
    }
    offsets[p + 1] = static_cast<std::uint32_t>(phases.size());
  }
  return Workload(processors, horizon, std::move(phases), std::move(offsets),
                  "flip-flop");
}

}  // namespace dlb
