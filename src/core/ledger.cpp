#include "core/ledger.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"

namespace dlb {

namespace {

// The record every empty ledger reads: the sentinel of a ledger that
// never held an entry.  Never written — a ledger allocates before its
// first store.
constexpr Ledger::Entry kEmptyRecords[1] = {{Ledger::kEndClass, 0, 0}};

Ledger::Entry* empty_records() {
  return const_cast<Ledger::Entry*>(kEmptyRecords);
}

// Result of rebuild_pass.
struct RebuildPass {
  std::size_t entries = 0;  // nonzero entries written
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::int64_t bad = 0;  // nonzero iff some per-cell check failed
  std::size_t own = 0;   // the owner's slot, or `entries` if it has none
};

// Ledger::rebuild_dealt's single pass: writes every column into record
// `entries` and advances past it only when it is nonzero.  The per-cell
// checks (d >= 0, b in {0, 1}, classes strictly ascending) fold into
// `bad` with no branch; the owner's slot is noted on the way, when its
// column stays nonzero.  Instantiated with and without marker values.
template <bool kMarkers>
RebuildPass rebuild_pass(const std::uint32_t* cls, std::size_t k,
                         const std::int64_t* d_vals,
                         const std::int64_t* b_vals, std::size_t stride,
                         std::uint32_t owner, Ledger::Entry* records) {
  constexpr std::size_t kNoSlot = ~std::size_t{0};
  std::size_t out = 0;
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::int64_t bad = 0;
  std::int64_t prev = -1;
  std::size_t own = kNoSlot;
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
    // b is checked in {0, 1} below, before the narrowing matters.
    records[out] = {j, static_cast<std::int32_t>(b), d};
    const bool live = (d | b) != 0;
    own = j == owner ? (live ? out : kNoSlot) : own;
    out += live ? 1 : 0;
    real += d;
    borrowed += b;
    bad |= (d >> 63) | (b & ~std::int64_t{1}) |
           (static_cast<std::int64_t>(j) <= prev ? 1 : 0);
    prev = j;
  }
  return {out, real, borrowed, bad, own == kNoSlot ? out : own};
}

// Whether a dealt row holds an entry: some column with d or b nonzero.
bool row_holds_entry(std::size_t k, const std::int64_t* d_vals,
                     const std::int64_t* b_vals, std::size_t stride) {
  for (std::size_t c = 0; c < k; ++c) {
    if (d_vals[c * stride] != 0) return true;
    if (b_vals != nullptr && b_vals[c * stride] != 0) return true;
  }
  return false;
}

// Ledger::rebuild_dealt's precise per-cell check: names the first
// violation.
void require_dealt_cells(const std::uint32_t* cls, std::size_t k,
                         const std::int64_t* d_vals,
                         const std::int64_t* b_vals, std::size_t stride,
                         std::uint32_t classes) {
  for (std::size_t c = 0; c < k; ++c) {
    DLB_REQUIRE(cls[c] < classes, "load class out of range");
    DLB_REQUIRE(c == 0 || cls[c] > cls[c - 1],
                "class list must be strictly ascending");
    DLB_REQUIRE(d_vals[c * stride] >= 0, "negative real count");
    const std::int64_t b = b_vals != nullptr ? b_vals[c * stride] : 0;
    DLB_REQUIRE(b == 0 || b == 1, "marker counts are 0 or 1 (paper, §4)");
  }
}

}  // namespace

Ledger::Ledger(std::uint32_t classes, std::uint32_t owner)
    : records_(empty_records()), classes_(classes), owner_(owner) {
  DLB_REQUIRE(classes >= 1, "ledger needs at least one load class");
  DLB_REQUIRE(owner < classes, "ledger owner must be a load class");
}

Ledger::Ledger(Ledger&& other) noexcept
    : records_(std::exchange(other.records_, empty_records())),
      capacity_(std::exchange(other.capacity_, 0)),
      classes_(other.classes_),
      owner_(other.owner_),
      size_(std::exchange(other.size_, 0)),
      own_(std::exchange(other.own_, 0)),
      real_(std::exchange(other.real_, 0)),
      borrowed_(std::exchange(other.borrowed_, 0)) {}

Ledger& Ledger::operator=(Ledger&& other) noexcept {
  std::swap(records_, other.records_);
  std::swap(capacity_, other.capacity_);
  std::swap(classes_, other.classes_);
  std::swap(owner_, other.owner_);
  std::swap(size_, other.size_);
  std::swap(own_, other.own_);
  std::swap(real_, other.real_);
  std::swap(borrowed_, other.borrowed_);
  return *this;
}

Ledger::~Ledger() {
  if (capacity_ > 0) delete[] records_;
}

std::size_t Ledger::lower_slot(std::uint32_t j) const {
  return static_cast<std::size_t>(
      std::lower_bound(records_, records_ + size_, j,
                       [](const Entry& e, std::uint32_t c) {
                         return e.cls < c;
                       }) -
      records_);
}

std::size_t Ledger::find_slot(std::uint32_t j) const {
  // No bounds test: past the live records lies the sentinel, whose class
  // no load class equals.
  const std::size_t pos = lower_slot(j);
  return records_[pos].cls == j ? pos : size_;
}

void Ledger::ensure_records(std::size_t records) {
  if (capacity_ >= records) return;
  const std::size_t held = capacity_ > 0 ? capacity_ - 1 : 0;
  const std::size_t cap = std::max(records - 1, 2 * held) + 1;
  Entry* grown = new Entry[cap];
  std::copy_n(records_, std::size_t{size_} + 1, grown);
  if (capacity_ > 0) delete[] records_;
  records_ = grown;
  capacity_ = cap;
}

void Ledger::insert_entry(std::size_t pos, std::uint32_t j,
                          std::int64_t d_val, std::int64_t b_val) {
  ensure_records(std::size_t{size_} + 2);
  // The tail moves up one record, the sentinel with it.
  std::copy_backward(records_ + pos, records_ + size_ + 1,
                     records_ + size_ + 2);
  records_[pos] = {j, static_cast<std::int32_t>(b_val), d_val};
  // An absent owner sits at size_, so it shifts with the tail too.
  if (j == owner_) {
    own_ = static_cast<std::uint32_t>(pos);
  } else if (own_ >= pos) {
    ++own_;
  }
  ++size_;
}

void Ledger::erase_entry(std::size_t pos) {
  std::copy(records_ + pos + 1, records_ + size_ + 1, records_ + pos);
  --size_;
  // The owner's entry itself goes absent (size_); a later one, or an
  // absent owner, moves down with the tail.
  if (own_ == pos) {
    own_ = size_;
  } else if (own_ > pos) {
    --own_;
  }
}

void Ledger::drop_if_zero(std::size_t pos) {
  if (records_[pos].d == 0 && records_[pos].b == 0) erase_entry(pos);
}

void Ledger::add_entry_real(std::uint32_t j, std::int64_t count) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(count >= 0, "cannot add a negative packet count");
  const std::size_t pos = slot(j);
  if (pos < size_) {
    records_[pos].d += count;
  } else if (count > 0) {
    insert_entry(lower_slot(j), j, count, 0);
  }
  real_ += count;
}

void Ledger::remove_entry_real(std::uint32_t j, std::int64_t count) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  DLB_REQUIRE(count >= 0, "cannot remove a negative packet count");
  const std::size_t pos = slot(j);
  DLB_REQUIRE(records_[pos].d >= count,
              "not enough real packets of this class");
  if (pos < size_) {
    records_[pos].d -= count;
    drop_if_zero(pos);
  }
  real_ -= count;
}

std::size_t Ledger::nth_marked_slot(std::size_t k) const {
  std::size_t pos = 0;
  for (; pos < size_; ++pos)
    if (records_[pos].b != 0 && k-- == 0) break;
  DLB_REQUIRE(pos < size_, "marked-class index out of range");
  return pos;
}

std::size_t Ledger::nth_borrowable_slot(std::size_t k) const {
  std::size_t pos = 0;
  for (; pos < size_; ++pos)
    if (records_[pos].d > 0 && records_[pos].b == 0 && k-- == 0) break;
  DLB_REQUIRE(pos < size_, "borrowable-class index out of range");
  return pos;
}

std::uint32_t Ledger::nth_marked(std::size_t k) const {
  return records_[nth_marked_slot(k)].cls;
}

std::size_t Ledger::borrowable() const {
  std::size_t count = 0;
  for (std::size_t pos = 0; pos < size_; ++pos)
    if (records_[pos].d > 0 && records_[pos].b == 0) ++count;
  return count;
}

std::uint32_t Ledger::borrow_nth(std::size_t k) {
  // One real packet becomes one marker: d + b is unchanged, so the entry
  // stays active.
  Entry& e = records_[nth_borrowable_slot(k)];
  e.d -= 1;
  e.b += 1;
  real_ -= 1;
  borrowed_ += 1;
  return e.cls;
}

void Ledger::clear_marker(std::uint32_t j) {
  DLB_REQUIRE(j < classes_, "load class out of range");
  const std::size_t pos = slot(j);
  DLB_REQUIRE(records_[pos].b > 0, "no marker of this class to clear");
  records_[pos].b -= 1;
  borrowed_ -= 1;
  drop_if_zero(pos);
}

std::uint32_t Ledger::repay_nth_marked(std::size_t k) {
  // A marker becomes a real packet: the entry stays active.
  Entry& e = records_[nth_marked_slot(k)];
  e.b -= 1;
  borrowed_ -= 1;
  e.d += 1;
  real_ += 1;
  return e.cls;
}

ClassCounts Ledger::rebuild_dealt(const std::uint32_t* cls, std::size_t k,
                                  const std::int64_t* d_vals,
                                  const std::int64_t* b_vals,
                                  std::size_t stride) {
  DLB_REQUIRE((cls != nullptr && d_vals != nullptr) || k == 0,
              "null dealt columns");
  DLB_REQUIRE(stride >= 1, "dealt column stride must be positive");
  DLB_REQUIRE(k >= size_,
              "rebuild_dealt needs cls to cover every active class");
  // Every column writes its record unconditionally and the cursor only
  // moves past nonzero entries, so k records plus the sentinel must
  // exist; after the pass the live prefix just shrinks, leaving the
  // records for the next deal.  A row with no entry writes record 0
  // alone, so the row is inspected only when the records would grow,
  // and grows only if it holds an entry.  An empty row for a ledger that
  // never held an entry leaves it reading the shared sentinel: there is
  // nothing to write, and its zero cells leave only the class order and
  // range to check.
  if (k + 1 > capacity_) {
    if (row_holds_entry(k, d_vals, b_vals, stride)) {
      ensure_records(k + 1);
    } else if (capacity_ == 0) {
      require_dealt_cells(cls, k, d_vals, b_vals, stride, classes_);
      return {};
    }
  }
  const RebuildPass pass =
      b_vals != nullptr
          ? rebuild_pass<true>(cls, k, d_vals, b_vals, stride, owner_,
                               records_)
          : rebuild_pass<false>(cls, k, d_vals, b_vals, stride, owner_,
                                records_);
  size_ = static_cast<std::uint32_t>(pass.entries);
  own_ = static_cast<std::uint32_t>(pass.own);
  real_ = pass.real;
  borrowed_ = pass.borrowed;
  records_[size_] = {kEndClass, 0, 0};
  if (pass.bad != 0 || (k > 0 && cls[k - 1] >= classes_))
    require_dealt_cells(cls, k, d_vals, b_vals, stride, classes_);
  return {records_[own_].d, records_[own_].b};
}

void Ledger::reserve_active(std::uint32_t k) {
  if (k > 0) ensure_records(std::size_t{std::min(k, classes_)} + 1);
}

void Ledger::check(std::uint32_t borrow_cap) const {
  DLB_ENSURE(capacity_ > size_ || (capacity_ == 0 && size_ == 0 &&
                                   records_ == kEmptyRecords),
             "record array out of shape (S2)");
  const Entry& end = records_[size_];
  DLB_ENSURE(end.cls == kEndClass && end.d == 0 && end.b == 0,
             "no sentinel record past the live prefix (S2)");
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const Entry& e = records_[i];
    DLB_ENSURE(e.cls < classes_, "active class out of range (S1)");
    DLB_ENSURE(i == 0 || e.cls > records_[i - 1].cls,
               "active classes not strictly ascending (S1/L3)");
    DLB_ENSURE(e.d >= 0, "negative real count");
    DLB_ENSURE(e.b >= 0, "negative marker count");
    DLB_ENSURE(e.b <= 1, "more than one marker per class (L2)");
    DLB_ENSURE(e.d > 0 || e.b > 0,
               "zero entry stored in the compact ledger (S1)");
    real += e.d;
    borrowed += e.b;
  }
  DLB_ENSURE(real == real_, "cached real load out of sync (L1)");
  DLB_ENSURE(borrowed == borrowed_, "cached borrow total out of sync");
  DLB_ENSURE(borrowed_ <= static_cast<std::int64_t>(borrow_cap),
             "borrow cap exceeded (L2)");
  DLB_ENSURE(own_ == find_slot(owner_), "owner slot out of sync");
}

std::vector<std::int64_t> Ledger::dense_d() const {
  std::vector<std::int64_t> out(classes_, 0);
  for (const Entry& e : records()) out[e.cls] = e.d;
  return out;
}

std::vector<std::int64_t> Ledger::dense_b() const {
  std::vector<std::int64_t> out(classes_, 0);
  for (const Entry& e : records()) out[e.cls] = e.b;
  return out;
}

}  // namespace dlb
