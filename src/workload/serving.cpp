#include "workload/serving.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "support/check.hpp"

namespace dlb {

// ---- ZipfSampler ------------------------------------------------------
//
// Rejection inversion for the bounded Zipf distribution (Hormann &
// Derflinger, "Rejection-inversion to generate variates from monotone
// discrete distributions", 1996).  h(x) = x^-alpha is the unnormalized
// density; H is its integral, extended so that inverting H on a uniform
// variate proposes a real x whose rounded rank k is accepted unless the
// proposal fell into the sliver between the continuous envelope and the
// discrete staircase.  Expected rejections stay below one for every
// (n, alpha), so sample() is O(1) without any per-rank table.

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha)
    : n_(n), alpha_(alpha) {
  DLB_REQUIRE(n >= 1, "Zipf needs a non-empty rank universe");
  DLB_REQUIRE(alpha > 0.0, "Zipf exponent must be positive");
  h_x1_ = h_integral(1.5) - 1.0;
  h_n_ = h_integral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::helper1(double x) {
  // log1p(x) / x, stable as x -> 0.
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
}

double ZipfSampler::helper2(double x) {
  // expm1(x) / x, stable as x -> 0.
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x * (1.0 / 24.0)));
}

double ZipfSampler::h(double x) const {
  return std::exp(-alpha_ * std::log(x));
}

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  return helper2((1.0 - alpha_) * log_x) * log_x;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - alpha_);
  // Clamp round-off: t < -1 would put the argument of log1p below -1.
  if (t < -1.0) t = -1.0;
  return std::exp(helper1(t) * x);
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  if (n_ == 1) return 1;
  while (true) {
    const double u = h_n_ + rng.uniform01() * (h_x1_ - h_n_);
    const double x = h_integral_inverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(
        std::max(1.0, std::min(static_cast<double>(n_), x + 0.5)));
    // Fast acceptance: proposals within s of their rank are always
    // inside the envelope; otherwise compare against the exact
    // staircase boundary.
    if (static_cast<double>(k) - x <= s_) return k;
    if (u >= h_integral(static_cast<double>(k) + 0.5) -
                 h(static_cast<double>(k)))
      return k;
  }
}

double ZipfSampler::pmf(std::uint64_t k) const {
  DLB_REQUIRE(k >= 1 && k <= n_, "rank out of range");
  if (norm_ == 0.0) {
    double sum = 0.0;
    for (std::uint64_t j = 1; j <= n_; ++j)
      sum += std::exp(-alpha_ * std::log(static_cast<double>(j)));
    norm_ = sum;
  }
  return std::exp(-alpha_ * std::log(static_cast<double>(k))) / norm_;
}

// ---- ServingWorkload --------------------------------------------------

std::uint32_t ServingWorkload::session_processor(std::uint64_t session,
                                                 std::uint32_t processors,
                                                 std::uint64_t seed) {
  // One SplitMix64 round over the salted session rank: cheap, well
  // mixed, and shared verbatim with the RSS baseline's flow hash.
  SplitMix64 mix(seed ^ (session * 0x9e3779b97f4a7c15ULL));
  return static_cast<std::uint32_t>(mix.next() % processors);
}

std::vector<double> ServingWorkload::arrival_mix(std::uint32_t processors,
                                                 const ServingParams& params,
                                                 std::uint64_t seed,
                                                 std::uint64_t draws) {
  DLB_REQUIRE(draws >= 1, "arrival_mix needs at least one draw");
  const ZipfSampler zipf(params.sessions, params.alpha);
  Rng rng(seed);
  std::vector<double> mix(processors, 0.0);
  for (std::uint64_t d = 0; d < draws; ++d)
    mix[session_processor(zipf.sample(rng), processors, seed)] += 1.0;
  for (double& m : mix) m /= static_cast<double>(draws);
  return mix;
}

Workload ServingWorkload::build(std::uint32_t processors,
                                std::uint32_t horizon,
                                const ServingParams& params,
                                std::uint64_t seed) {
  DLB_REQUIRE(processors >= 1, "serving workload needs processors");
  DLB_REQUIRE(horizon >= 1, "serving workload needs a positive horizon");
  DLB_REQUIRE(params.segment_steps >= 1, "segment_steps must be positive");
  DLB_REQUIRE(params.offered_load > 0.0, "offered_load must be positive");
  DLB_REQUIRE(params.service_prob >= 0.0 && params.service_prob <= 1.0,
              "service_prob out of [0,1]");
  DLB_REQUIRE(params.flash_boost >= 1.0, "flash_boost must be >= 1");
  DLB_REQUIRE(params.flash_width >= 0.0 && params.flash_width <= 1.0,
              "flash_width out of [0,1]");
  DLB_REQUIRE(params.diurnal_period >= 1, "diurnal_period must be positive");

  const std::uint32_t n = processors;
  const std::uint32_t segments =
      (horizon + params.segment_steps - 1) / params.segment_steps;
  const std::uint64_t draws = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(params.draws_per_proc) * n);
  const ZipfSampler zipf(params.sessions, params.alpha);
  Rng rng(seed);

  // Flash-crowd windows, resolved up front at segment granularity: each
  // event picks a start segment and a seeded random processor set.  The
  // windows draw from a split-off stream (split before any use of the
  // main stream) so changing flash_crowds — including to zero — leaves
  // the per-segment Zipf rates bit-identical.
  Rng flash_rng = rng.split();
  const std::uint32_t flash_segments = std::max<std::uint32_t>(
      1, (params.flash_steps + params.segment_steps - 1) /
             params.segment_steps);
  const auto flash_procs_count = static_cast<std::uint32_t>(std::min<double>(
      n, std::ceil(params.flash_width * static_cast<double>(n))));
  struct Flash {
    std::uint32_t first_segment;
    std::uint32_t last_segment;
    std::vector<std::uint32_t> procs;
  };
  std::vector<Flash> flashes;
  for (std::uint32_t e = 0; e < params.flash_crowds; ++e) {
    if (flash_procs_count == 0) break;
    Flash fl;
    fl.first_segment = static_cast<std::uint32_t>(flash_rng.below(
        std::max<std::uint32_t>(1, segments > flash_segments
                                       ? segments - flash_segments
                                       : 1)));
    fl.last_segment =
        std::min(segments - 1, fl.first_segment + flash_segments - 1);
    fl.procs = flash_rng.sample_distinct(n, flash_procs_count, n);
    std::sort(fl.procs.begin(), fl.procs.end());
    flashes.push_back(std::move(fl));
  }

  // Flat storage: segment s of processor p is phase p * segments + s.
  std::vector<Phase> phases(std::size_t{n} * segments);
  std::vector<std::uint32_t> offsets(std::size_t{n} + 1);
  for (std::uint32_t p = 1; p <= n; ++p)
    offsets[p] = offsets[p - 1] + segments;
  std::vector<std::uint32_t> tally(n);
  std::vector<double> boost(n);
  for (std::uint32_t s = 0; s < segments; ++s) {
    const std::uint32_t start = s * params.segment_steps;
    const std::uint32_t end =
        std::min(horizon - 1, start + params.segment_steps - 1);
    // Per-segment arrival mix: fresh Zipf draws every segment, so the
    // hot set drifts (non-stationary demand) while the marginal skew
    // stays Zipf(alpha).
    std::fill(tally.begin(), tally.end(), 0);
    for (std::uint64_t d = 0; d < draws; ++d)
      ++tally[session_processor(zipf.sample(rng), n, seed)];
    // Diurnal envelope at the segment midpoint.
    const double t_mid = 0.5 * (static_cast<double>(start) +
                                static_cast<double>(end));
    const double envelope =
        1.0 + params.diurnal_depth *
                  std::sin(2.0 * 3.14159265358979323846 * t_mid /
                           static_cast<double>(params.diurnal_period));
    std::fill(boost.begin(), boost.end(), 1.0);
    for (const Flash& fl : flashes)
      if (s >= fl.first_segment && s <= fl.last_segment)
        for (std::uint32_t p : fl.procs) boost[p] *= params.flash_boost;
    for (std::uint32_t p = 0; p < n; ++p) {
      const double share =
          static_cast<double>(tally[p]) / static_cast<double>(draws);
      const double rate = params.offered_load * static_cast<double>(n) *
                          share * envelope * boost[p];
      Phase& ph = phases[std::size_t{p} * segments + s];
      ph.start = start;
      ph.end = end;
      // One packet per step is the model's unit; overloaded hot
      // processors saturate at probability 1 — exactly the overload the
      // balancer must spread.
      ph.generate_prob = std::min(1.0, std::max(0.0, rate));
      ph.consume_prob = params.service_prob;
    }
  }

  char name[48];
  std::snprintf(name, sizeof(name), "serving-zipf(%.2f)", params.alpha);
  return Workload(n, horizon, std::move(phases), std::move(offsets), name);
}

}  // namespace dlb
