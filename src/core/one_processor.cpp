#include "core/one_processor.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace dlb {

OneProcessorModel::OneProcessorModel(const Params& params, std::uint64_t seed)
    : params_(params), rng_(seed), loads_(params.n, 0) {
  DLB_REQUIRE(params_.n >= 2, "model needs at least two processors");
  DLB_REQUIRE(params_.delta >= 1 && params_.delta < params_.n,
              "delta out of range");
  DLB_REQUIRE(params_.f >= 1.0, "f must be >= 1");
}

std::uint64_t OneProcessorModel::grow_round() {
  // repeat { l_new += 1 } until l_new > l_old and l_new >= f * l_old,
  // then balance (Fig. 1).  The repeat draws no random numbers, so the
  // load jumps straight to the first value that fires the trigger.
  const std::int64_t before = loads_[0];
  const auto f_l_old = static_cast<std::int64_t>(
      std::ceil(params_.f * static_cast<double>(l_old_)));
  loads_[0] = std::max({before + 1, l_old_ + 1, f_l_old});
  const auto generated = static_cast<std::uint64_t>(loads_[0] - before);
  balance();
  return generated;
}

void OneProcessorModel::run_grow(std::uint32_t rounds) {
  for (std::uint32_t r = 0; r < rounds; ++r) grow_round();
}

std::uint64_t OneProcessorModel::consume_total(std::uint64_t target) {
  const std::uint64_t ops_before = balance_ops_;
  std::uint64_t consumed = 0;
  while (consumed < target && total_load() > 0) {
    if (loads_[0] > 0) {
      loads_[0] -= 1;
      ++consumed;
    }
    const bool trigger =
        loads_[0] < l_old_ && l_old_ >= 1 &&
        static_cast<double>(loads_[0]) <=
            static_cast<double>(l_old_) / params_.f;
    if (trigger || loads_[0] == 0) balance();
  }
  return balance_ops_ - ops_before;
}

void OneProcessorModel::balance() {
  if (params_.relaxed_pairwise && params_.delta > 1) {
    // delta consecutive pairwise equalizations, counted as one operation
    // (Figure 6's relaxed algorithm).
    for (std::uint32_t k = 0; k < params_.delta; ++k) {
      std::vector<std::uint32_t> pair{
          0, static_cast<std::uint32_t>(rng_.below(params_.n - 1)) + 1};
      equalize(pair);
    }
  } else {
    std::vector<std::uint32_t> participants{0};
    for (std::uint32_t q : rng_.sample_distinct(params_.n, params_.delta, 0))
      participants.push_back(q);
    equalize(participants);
  }
  l_old_ = loads_[0];
  ++balance_ops_;
}

void OneProcessorModel::equalize(std::vector<std::uint32_t>& participants) {
  std::int64_t pool = 0;
  for (std::uint32_t p : participants) pool += loads_[p];
  const auto m = static_cast<std::int64_t>(participants.size());
  const std::int64_t base = pool / m;
  std::int64_t remainder = pool % m;
  // Deal the remainder starting at a random rotation so no participant is
  // systematically favored.
  const auto start =
      static_cast<std::size_t>(rng_.below(participants.size()));
  for (std::uint32_t p : participants) loads_[p] = base;
  for (std::int64_t r = 0; r < remainder; ++r) {
    loads_[participants[(start + static_cast<std::size_t>(r)) %
                        participants.size()]] += 1;
  }
}

std::int64_t OneProcessorModel::load(std::uint32_t i) const {
  DLB_REQUIRE(i < params_.n, "processor id out of range");
  return loads_[i];
}

std::int64_t OneProcessorModel::total_load() const {
  std::int64_t total = 0;
  for (std::int64_t l : loads_) total += l;
  return total;
}

double OneProcessorModel::ratio_to_average() const {
  std::int64_t others = 0;
  for (std::uint32_t i = 1; i < params_.n; ++i) others += loads_[i];
  if (others == 0) return 0.0;
  const double avg = static_cast<double>(others) /
                     static_cast<double>(params_.n - 1);
  return static_cast<double>(loads_[0]) / avg;
}

void OneProcessorModel::set_load(std::uint32_t i, std::int64_t value) {
  DLB_REQUIRE(i < params_.n, "processor id out of range");
  DLB_REQUIRE(value >= 0, "load cannot be negative");
  loads_[i] = value;
}

}  // namespace dlb
