// Deterministic pseudo-random number generation.
//
// Every experiment in the paper is an average over repeated randomized
// runs (candidate sets M are drawn uniformly at random, workload phases
// are drawn from intervals).  Reproducibility therefore requires a PRNG
// that is (a) seedable and stable across platforms, (b) splittable into
// independent streams so that the threaded runtime and the sequential
// simulator draw identical decisions, and (c) fast, since a 100-run sweep
// draws hundreds of millions of variates.  We use xoshiro256** seeded via
// SplitMix64, the combination recommended by its authors.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace dlb {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state and to
/// derive independent child seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x1993'aa93'0000'0001ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  // The per-event draws (next, below, uniform01, bernoulli) are defined
  // here so every caller inlines them; a step draws thousands.

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Unbiased uniform integer in [0, bound) via Lemire's method.
  /// bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) fail_zero_bound();
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Derives an independent child generator; the parent advances.
  Rng split();

  /// Exposes / restores the raw 256-bit state (for checkpointing).
  std::array<std::uint64_t, 4> state() const { return s_; }
  static Rng from_state(const std::array<std::uint64_t, 4>& state);

  /// k distinct values drawn uniformly from {0, ..., n-1} \ {exclude}
  /// (pass exclude >= n to exclude nothing).  Robert Floyd's algorithm:
  /// O(k) expected draws, no O(n) allocation.  Result order is not
  /// uniform over permutations; callers that need a random order should
  /// shuffle.  Requires k <= n - (exclude < n ? 1 : 0).
  std::vector<std::uint32_t> sample_distinct(std::uint32_t n, std::uint32_t k,
                                             std::uint32_t exclude);

  /// sample_distinct into a caller-owned buffer (cleared first): same
  /// draws, same order, but hot loops reuse `out`'s capacity instead of
  /// allocating a fresh vector per call.
  void sample_distinct_into(std::vector<std::uint32_t>& out, std::uint32_t n,
                            std::uint32_t k, std::uint32_t exclude);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  // below(0)'s contract failure, kept out of line.
  [[noreturn]] static void fail_zero_bound();

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace dlb
