// Request-serving workload: Zipf-skewed session traffic compiled into
// the phase-schedule model.
//
// The paper's guarantees are about imbalance, but what a serving system
// buys with balance is tail latency.  This generator produces a
// production-shaped demand pattern: millions of user sessions hashed
// into per-processor load classes, per-step packet arrivals whose
// across-processor skew follows a seeded Zipf(alpha) popularity
// distribution, a diurnal modulation envelope, and flash-crowd bursts
// that multiply a small processor subset's arrival rate for a bounded
// window.  The output is an ordinary Workload (per-processor phases
// with generate/consume probabilities per segment), so every engine —
// serial batched, async (deterministic or relaxed), threaded — can drive
// it unchanged, and Trace::record can pin one demand realization for the
// baseline comparisons.
//
// Zipf sampling uses rejection inversion (Hormann & Derflinger 1996,
// the sampler behind Apache Commons' RejectionInversionZipfSampler):
// O(1) per draw with no O(sessions) table, which is what makes a
// multi-million-session universe practical.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"
#include "workload/workload.hpp"

namespace dlb {

/// Bounded Zipf(alpha) sampler over ranks {1, ..., n} via rejection
/// inversion: P(rank = k) proportional to k^-alpha.  Deterministic given
/// the caller's Rng; alpha > 0 (alpha = 1 is handled exactly).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  std::uint64_t n() const { return n_; }
  double alpha() const { return alpha_; }

  /// Draws a 1-based rank.  Expected rejections < 1 for all (n, alpha).
  std::uint64_t sample(Rng& rng) const;

  /// Analytic pmf P(rank = k) (oracle for the statistical tests; O(n)
  /// on first use per sampler via the cached normalizer).
  double pmf(std::uint64_t k) const;

 private:
  // H(x) = integral of x^-alpha, shifted so rejection inversion works on
  // [h_x1_, h_n_]; h_inverse undoes it.  See Hormann & Derflinger.
  double h(double x) const;
  double h_integral(double x) const;
  double h_integral_inverse(double x) const;
  // exp(alpha * log1p(x)) helpers, stable near alpha = 1.
  static double helper1(double x);
  static double helper2(double x);

  std::uint64_t n_;
  double alpha_;
  double h_x1_;
  double h_n_;
  double s_;
  mutable double norm_ = 0.0;  // pmf normalizer, computed lazily
};

/// Shape of the serving scenario.  Defaults model a mid-size frontend:
/// two million sessions, alpha just past 1 (web-like popularity skew),
/// ~55% offered load against ~75% service capacity, one diurnal cycle
/// per 400 steps and one flash crowd.
struct ServingParams {
  /// User-session universe.  Sessions are ranked by popularity; session
  /// k's traffic share is proportional to k^-alpha.
  std::uint64_t sessions = 2'000'000;
  /// Zipf exponent: 0.8 = mild skew, 1.1 = web-like, 1.4 = viral-heavy.
  double alpha = 1.1;
  /// Zipf draws per segment used to estimate the per-processor arrival
  /// mix, as a multiple of n.  More draws = smoother, less draws =
  /// noisier (more non-stationary) segment rates.
  std::uint32_t draws_per_proc = 8;
  /// Mean per-processor arrival probability per step at envelope 1.
  /// Hot processors clamp at 1 packet/step (the model's unit); the
  /// excess is exactly the overload the balancer must spread.
  double offered_load = 0.55;
  /// Per-step consume probability of every processor (service capacity).
  double service_prob = 0.75;
  /// Phase granularity: arrival rates are re-estimated (and the
  /// envelope re-sampled) every `segment_steps` steps.
  std::uint32_t segment_steps = 50;
  /// Diurnal modulation: envelope(t) = 1 + depth * sin(2 pi t / period).
  std::uint32_t diurnal_period = 400;
  double diurnal_depth = 0.35;
  /// Flash crowds: `flash_crowds` windows of `flash_steps` steps each at
  /// seeded random offsets; within a window, a seeded random set of
  /// ceil(flash_width * n) processors sees its arrival probability
  /// multiplied by flash_boost (then clamped to 1).
  std::uint32_t flash_crowds = 1;
  std::uint32_t flash_steps = 60;
  double flash_boost = 6.0;
  double flash_width = 0.05;
};

/// Builder for the serving workload (stateless; all entry points are
/// static and fully determined by their arguments).
class ServingWorkload {
 public:
  /// Compiles the scenario into a Workload named
  /// "serving-zipf(<alpha>)".  Deterministic given (processors, horizon,
  /// params, seed); engines drive it like any other workload.
  static Workload build(std::uint32_t processors, std::uint32_t horizon,
                        const ServingParams& params, std::uint64_t seed);

  /// The stationary per-processor arrival mix (sums to 1): session k of
  /// the Zipf universe contributes pmf(k) to the processor its hash
  /// lands on.  Exposed for tests and for sizing intuition; O(draws)
  /// sampled estimate, not the O(sessions) exact sum.
  static std::vector<double> arrival_mix(std::uint32_t processors,
                                         const ServingParams& params,
                                         std::uint64_t seed,
                                         std::uint64_t draws);

  /// Session-to-processor hash (SplitMix64 of the session rank, salted
  /// by the workload seed, reduced mod n).  Exposed so the RSS baseline
  /// and the tests agree with the generator on class placement.
  static std::uint32_t session_processor(std::uint64_t session,
                                         std::uint32_t processors,
                                         std::uint64_t seed);
};

}  // namespace dlb
