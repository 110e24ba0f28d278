#include "support/rng.hpp"

#include "support/check.hpp"

namespace dlb {

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // All-zero state is the one invalid state for xoshiro; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but guard regardless.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

void Rng::fail_zero_bound() {
  detail::contract_fail("precondition", "bound > 0", __FILE__, __LINE__,
                        "Rng::below requires a positive bound");
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  DLB_REQUIRE(lo <= hi, "Rng::range requires lo <= hi");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  // span == 0 means the full 2^64 range (lo == INT64_MIN, hi == INT64_MAX).
  const std::uint64_t off = (span == 0) ? next() : below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + off);
}

double Rng::uniform(double lo, double hi) {
  DLB_REQUIRE(lo <= hi, "Rng::uniform requires lo <= hi");
  return lo + (hi - lo) * uniform01();
}

Rng Rng::split() { return Rng(next() ^ 0x9e3779b97f4a7c15ULL); }

Rng Rng::from_state(const std::array<std::uint64_t, 4>& state) {
  DLB_REQUIRE(state[0] || state[1] || state[2] || state[3],
              "the all-zero state is invalid for xoshiro256**");
  Rng rng(0);
  rng.s_ = state;
  return rng;
}

std::vector<std::uint32_t> Rng::sample_distinct(std::uint32_t n,
                                                std::uint32_t k,
                                                std::uint32_t exclude) {
  std::vector<std::uint32_t> out;
  sample_distinct_into(out, n, k, exclude);
  return out;
}

void Rng::sample_distinct_into(std::vector<std::uint32_t>& out,
                               std::uint32_t n, std::uint32_t k,
                               std::uint32_t exclude) {
  const std::uint32_t avail = (exclude < n) ? n - 1 : n;
  DLB_REQUIRE(k <= avail, "sample_distinct: not enough values to sample");
  // Sample from a conceptual array of the available values: if `exclude`
  // is in range, value v >= exclude maps to v + 1.
  auto remap = [&](std::uint64_t v) -> std::uint32_t {
    auto value = static_cast<std::uint32_t>(v);
    return (exclude < n && value >= exclude) ? value + 1 : value;
  };
  out.clear();
  out.reserve(k);
  // Floyd's algorithm over the remapped universe of size `avail`.
  for (std::uint32_t j = avail - k; j < avail; ++j) {
    const std::uint32_t t = remap(below(j + 1));
    bool seen = false;
    for (std::uint32_t chosen : out) {
      if (chosen == t) {
        seen = true;
        break;
      }
    }
    out.push_back(seen ? remap(j) : t);
  }
}

}  // namespace dlb
