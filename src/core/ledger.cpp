#include "core/ledger.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

namespace {

// Result of rebuild_pass.
struct RebuildPass {
  std::size_t entries = 0;  // nonzero entries written
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::int64_t bad = 0;  // nonzero iff some per-cell check failed
  const std::uint32_t* own_at = nullptr;  // the own class within cls
};

// Ledger::rebuild_dealt's single pass: writes every column into slot
// `entries` of the compact vectors and advances past it only when it is
// nonzero.  The per-cell checks (d >= 0, b in {0, 1}, classes strictly
// ascending) fold into `bad` with no branch; the own class is located on
// the way.  Instantiated with and without marker values.
template <bool kMarkers>
RebuildPass rebuild_pass(const std::uint32_t* cls, std::size_t k,
                         const std::int64_t* d_vals,
                         const std::int64_t* b_vals, std::size_t stride,
                         std::uint32_t own, std::uint32_t* active,
                         std::int64_t* d_counts, std::int64_t* b_counts) {
  std::size_t out = 0;
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::int64_t bad = 0;
  std::int64_t prev = -1;
  const std::uint32_t* own_at = nullptr;
  const std::uint32_t* const end = cls + k;
  for (const std::uint32_t* it = cls; it != end; ++it) {
    const std::uint32_t j = *it;
    const std::int64_t d = *d_vals;
    d_vals += stride;
    std::int64_t b = 0;
    if constexpr (kMarkers) {
      b = *b_vals;
      b_vals += stride;
    }
    active[out] = j;
    d_counts[out] = d;
    b_counts[out] = b;
    out += (d | b) != 0 ? 1 : 0;
    real += d;
    borrowed += b;
    bad |= (d >> 63) | (b & ~std::int64_t{1}) |
           (static_cast<std::int64_t>(j) <= prev ? 1 : 0);
    prev = j;
    own_at = j == own ? it : own_at;
  }
  return {out, real, borrowed, bad, own_at};
}

}  // namespace

Ledger::Ledger(std::uint32_t classes) : classes_(classes) {
  DLB_REQUIRE(classes >= 1, "ledger needs at least one load class");
}

std::size_t Ledger::lower_slot(std::uint32_t j) const {
  return static_cast<std::size_t>(
      std::lower_bound(active_.data(), active_.data() + size_, j) -
      active_.data());
}

std::size_t Ledger::slot(std::uint32_t j) const {
  if (hint_ < size_ && active_[hint_] == j) return hint_;
  const std::size_t pos = lower_slot(j);
  if (pos < size_ && active_[pos] == j) return pos;
  return size_;
}

std::size_t Ledger::slot(std::uint32_t j) {
  const std::size_t pos = static_cast<const Ledger&>(*this).slot(j);
  if (pos < size_) hint_ = pos;
  return pos;
}

std::int64_t Ledger::d(std::uint32_t j) const {
  const std::size_t pos = slot(j);
  return pos < size_ ? d_counts_[pos] : 0;
}

std::int64_t Ledger::b(std::uint32_t j) const {
  const std::size_t pos = slot(j);
  return pos < size_ ? b_counts_[pos] : 0;
}

void Ledger::ensure_slots(std::size_t slots) {
  if (active_.size() >= slots) return;
  if (active_.capacity() < slots) {
    const std::size_t cap = std::max(slots, 2 * active_.capacity());
    active_.reserve(cap);
    d_counts_.reserve(cap);
    b_counts_.reserve(cap);
  }
  active_.resize(slots);
  d_counts_.resize(slots);
  b_counts_.resize(slots);
}

void Ledger::insert_entry(std::size_t pos, std::uint32_t j,
                          std::int64_t d_val, std::int64_t b_val) {
  ensure_slots(std::size_t{size_} + 1);
  const auto at = static_cast<std::ptrdiff_t>(pos);
  const auto end = static_cast<std::ptrdiff_t>(size_);
  std::copy_backward(active_.begin() + at, active_.begin() + end,
                     active_.begin() + end + 1);
  std::copy_backward(d_counts_.begin() + at, d_counts_.begin() + end,
                     d_counts_.begin() + end + 1);
  std::copy_backward(b_counts_.begin() + at, b_counts_.begin() + end,
                     b_counts_.begin() + end + 1);
  active_[pos] = j;
  d_counts_[pos] = d_val;
  b_counts_[pos] = b_val;
  ++size_;
}

void Ledger::erase_entry(std::size_t pos) {
  const auto at = static_cast<std::ptrdiff_t>(pos);
  const auto end = static_cast<std::ptrdiff_t>(size_);
  std::copy(active_.begin() + at + 1, active_.begin() + end,
            active_.begin() + at);
  std::copy(d_counts_.begin() + at + 1, d_counts_.begin() + end,
            d_counts_.begin() + at);
  std::copy(b_counts_.begin() + at + 1, b_counts_.begin() + end,
            b_counts_.begin() + at);
  --size_;
}

void Ledger::drop_if_zero(std::size_t pos) {
  if (d_counts_[pos] == 0 && b_counts_[pos] == 0) erase_entry(pos);
}

void Ledger::add_real(std::uint32_t j, std::int64_t count) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(count >= 0, "cannot add a negative packet count");
  const std::size_t pos = slot(j);
  if (pos < size_) {
    d_counts_[pos] += count;
  } else if (count > 0) {
    insert_entry(lower_slot(j), j, count, 0);
  }
  real_ += count;
}

void Ledger::remove_real(std::uint32_t j, std::int64_t count) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(count >= 0, "cannot remove a negative packet count");
  const std::size_t pos = slot(j);
  const std::int64_t held = pos < size_ ? d_counts_[pos] : 0;
  DLB_REQUIRE(held >= count, "not enough real packets of this class");
  if (pos < size_) {
    d_counts_[pos] -= count;
    drop_if_zero(pos);
  }
  real_ -= count;
}

std::size_t Ledger::nth_marked_slot(std::size_t k) const {
  std::size_t pos = 0;
  for (; pos < size_; ++pos)
    if (b_counts_[pos] != 0 && k-- == 0) break;
  DLB_REQUIRE(pos < size_, "marked-class index out of range");
  return pos;
}

std::size_t Ledger::nth_borrowable_slot(std::size_t k) const {
  std::size_t pos = 0;
  for (; pos < size_; ++pos)
    if (d_counts_[pos] > 0 && b_counts_[pos] == 0 && k-- == 0) break;
  DLB_REQUIRE(pos < size_, "borrowable-class index out of range");
  return pos;
}

std::uint32_t Ledger::nth_marked(std::size_t k) const {
  return active_[nth_marked_slot(k)];
}

std::size_t Ledger::borrowable() const {
  std::size_t count = 0;
  for (std::size_t pos = 0; pos < size_; ++pos)
    if (d_counts_[pos] > 0 && b_counts_[pos] == 0) ++count;
  return count;
}

std::uint32_t Ledger::borrow_nth(std::size_t k) {
  // One real packet becomes one marker: d + b is unchanged, so the entry
  // stays active.
  const std::size_t pos = nth_borrowable_slot(k);
  d_counts_[pos] -= 1;
  b_counts_[pos] += 1;
  real_ -= 1;
  borrowed_ += 1;
  return active_[pos];
}

void Ledger::clear_marker(std::uint32_t j) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  const std::size_t pos = slot(j);
  DLB_REQUIRE(pos < size_ && b_counts_[pos] > 0,
              "no marker of this class to clear");
  b_counts_[pos] -= 1;
  borrowed_ -= 1;
  drop_if_zero(pos);
}

std::uint32_t Ledger::repay_nth_marked(std::size_t k) {
  // A marker becomes a real packet: the entry stays active.
  const std::size_t pos = nth_marked_slot(k);
  b_counts_[pos] -= 1;
  borrowed_ -= 1;
  d_counts_[pos] += 1;
  real_ += 1;
  return active_[pos];
}

ClassCounts Ledger::rebuild_dealt(const std::uint32_t* cls, std::size_t k,
                                  const std::int64_t* d_vals,
                                  const std::int64_t* b_vals,
                                  std::size_t stride, std::uint32_t own) {
  DLB_REQUIRE((cls != nullptr && d_vals != nullptr) || k == 0,
              "null dealt columns");
  DLB_REQUIRE(stride >= 1, "dealt column stride must be positive");
  DLB_REQUIRE(k >= size_,
              "rebuild_dealt needs cls to cover every active class");
  // Every column writes its slot unconditionally and the cursor only
  // moves past nonzero entries, so k slots must exist; after the pass
  // the live prefix just shrinks, leaving the slots for the next deal.
  ensure_slots(k);
  const RebuildPass pass =
      b_vals != nullptr
          ? rebuild_pass<true>(cls, k, d_vals, b_vals, stride, own,
                               active_.data(), d_counts_.data(),
                               b_counts_.data())
          : rebuild_pass<false>(cls, k, d_vals, b_vals, stride, own,
                                active_.data(), d_counts_.data(),
                                b_counts_.data());
  size_ = static_cast<std::uint32_t>(pass.entries);
  real_ = pass.real;
  borrowed_ = pass.borrowed;
  if (pass.bad != 0 || (k > 0 && cls[k - 1] >= classes_)) {
    // Precise re-check over the inputs: names the first violation.
    for (std::size_t c = 0; c < k; ++c) {
      DLB_REQUIRE(cls[c] < classes_, "load class out of range");
      DLB_REQUIRE(c == 0 || cls[c] > cls[c - 1],
                  "class list must be strictly ascending");
      DLB_REQUIRE(d_vals[c * stride] >= 0, "negative real count");
      const std::int64_t b = b_vals != nullptr ? b_vals[c * stride] : 0;
      DLB_REQUIRE(b == 0 || b == 1, "marker counts are 0 or 1 (paper, §4)");
    }
  }
  ClassCounts mine;
  if (pass.own_at != nullptr) {
    const auto c = static_cast<std::size_t>(pass.own_at - cls);
    mine.d = d_vals[c * stride];
    mine.b = b_vals != nullptr ? b_vals[c * stride] : 0;
  }
  return mine;
}

void Ledger::reserve_active(std::uint32_t k) {
  const auto cap = static_cast<std::size_t>(std::min(k, classes_));
  active_.reserve(cap);
  d_counts_.reserve(cap);
  b_counts_.reserve(cap);
}

void Ledger::check(std::uint32_t borrow_cap) const {
  DLB_ENSURE(d_counts_.size() == active_.size() &&
                 b_counts_.size() == active_.size() &&
                 size_ <= active_.size(),
             "parallel count vectors out of shape (S2)");
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    DLB_ENSURE(active_[i] < classes_, "active class out of range (S1)");
    DLB_ENSURE(i == 0 || active_[i] > active_[i - 1],
               "active classes not strictly ascending (S1/L3)");
    DLB_ENSURE(d_counts_[i] >= 0, "negative real count");
    DLB_ENSURE(b_counts_[i] >= 0, "negative marker count");
    DLB_ENSURE(b_counts_[i] <= 1, "more than one marker per class (L2)");
    DLB_ENSURE(d_counts_[i] > 0 || b_counts_[i] > 0,
               "zero entry stored in the compact ledger (S1)");
    real += d_counts_[i];
    borrowed += b_counts_[i];
  }
  DLB_ENSURE(real == real_, "cached real load out of sync (L1)");
  DLB_ENSURE(borrowed == borrowed_, "cached borrow total out of sync");
  DLB_ENSURE(borrowed_ <= static_cast<std::int64_t>(borrow_cap),
             "borrow cap exceeded (L2)");
}

std::vector<std::int64_t> Ledger::dense_d() const {
  std::vector<std::int64_t> out(classes_, 0);
  for (std::size_t i = 0; i < size_; ++i) out[active_[i]] = d_counts_[i];
  return out;
}

std::vector<std::int64_t> Ledger::dense_b() const {
  std::vector<std::int64_t> out(classes_, 0);
  for (std::size_t i = 0; i < size_; ++i) out[active_[i]] = b_counts_[i];
  return out;
}

std::size_t Ledger::memory_bytes() const {
  return active_.capacity() * sizeof(std::uint32_t) +
         d_counts_.capacity() * sizeof(std::int64_t) +
         b_counts_.capacity() * sizeof(std::int64_t);
}

}  // namespace dlb
