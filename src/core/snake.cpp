#include "core/snake.hpp"

#include "support/check.hpp"

namespace dlb {

namespace {

// The +1 rule of a column deal: with pool = base * m + rem over the m
// dealt rows, the run of `count` rows that follows the circulating
// pointer — rows ptr, ptr + 1, ..., ptr + count - 1 (mod rows) — gets
// base + 1 and every other row base.  PlusRun<kRows> tells whether row r
// is in the run.  For a fixed row count (2..9, see
// detail::with_row_count) it reads bit r of a mask, the low `count` bits
// rotated left by ptr within kRows bits, so the unrolled per-row loops
// carry no compare on ptr; count < kRows keeps both shifts in range.
// The generic instance (kRows = 0: any row count) compares r's offset
// from ptr.
template <std::size_t kRows>
class PlusRun {
 public:
  PlusRun(std::size_t /*rows*/, std::size_t ptr, std::size_t count) {
    const std::uint32_t run = (std::uint32_t{1} << count) - 1;
    mask_ = run << ptr | run >> (kRows - ptr);
  }
  std::int64_t operator()(std::size_t r) const { return (mask_ >> r) & 1; }

 private:
  std::uint32_t mask_;  // bits kRows and up are junk and never read
};

template <>
class PlusRun<0> {
 public:
  PlusRun(std::size_t rows, std::size_t ptr, std::size_t count)
      : rows_(rows), ptr_(ptr), count_(count) {}
  std::int64_t operator()(std::size_t r) const {
    const std::size_t off = r >= ptr_ ? r - ptr_ : r + rows_ - ptr_;
    return off < count_ ? 1 : 0;
  }

 private:
  std::size_t rows_;
  std::size_t ptr_;
  std::size_t count_;
};

// Deals one column with no excluded row: rows ptr .. ptr + rem - 1
// (mod rows) get base + 1, the rest base, with no remainder loop; the
// sign checks fold into one OR.  Advances ptr and returns the column's
// surplus (the packets that left their row).  kRows > 0 fixes the row
// count at compile time (0: read `rows`).  Forced inline: with two
// callers GCC would otherwise call it per column.
template <std::size_t kRows>
[[gnu::always_inline]] inline std::int64_t deal_column(
    std::int64_t* col, std::size_t dyn_rows, std::size_t& ptr) {
  const std::size_t rows = kRows > 0 ? kRows : dyn_rows;
  std::int64_t pool = 0;
  std::int64_t sign = 0;
#pragma GCC unroll 9
  for (std::size_t r = 0; r < rows; ++r) {
    pool += col[r];
    sign |= col[r];
  }
  DLB_REQUIRE(sign >= 0, "negative packet count");
  // Empty column (most of a marker matrix): every cell is already zero
  // and the pointer does not move.
  if (pool == 0) return 0;
  // pool >= 0, so unsigned division: a fixed row count makes it a
  // multiply; a dynamic one skips it for pools below m (most marker
  // columns).
  const auto upool = static_cast<std::uint64_t>(pool);
  const std::uint64_t base = kRows > 0 || upool >= rows ? upool / rows : 0;
  const auto rem = static_cast<std::size_t>(upool - base * rows);
  const PlusRun<kRows> plus(rows, ptr, rem);
  std::int64_t surplus = 0;
#pragma GCC unroll 9
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int64_t v = static_cast<std::int64_t>(base) + plus(r);
    const std::int64_t give = col[r] - v;
    surplus += give > 0 ? give : 0;
    col[r] = v;
  }
  ptr += rem;
  if (ptr >= rows) ptr -= rows;
  return surplus;
}

template <std::size_t kRows>
SnakeDealResult deal_plain(std::int64_t* cells, std::size_t rows,
                           std::size_t columns, std::size_t ptr) {
  std::uint64_t moved = 0;
  for (std::size_t c = 0; c < columns; ++c)
    moved += static_cast<std::uint64_t>(
        deal_column<kRows>(cells + c * rows, rows, ptr));
  return {ptr, moved};
}

// The deal with [D7] exclusions or pair flows: columns without an
// excluded row and without a sink go through deal_column; the others are
// pooled over their dealt rows and take the same +1 rule.
template <std::size_t kRows>
SnakeDealResult deal_general(std::int64_t* cells, std::size_t dyn_rows,
                             std::size_t columns,
                             const SnakeColumnOptions& options) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t rows = kRows > 0 ? kRows : dyn_rows;
  const SnakeExclusion* next_exclusion = options.exclusions;
  const SnakeExclusion* const exclusions_end =
      options.exclusions + options.exclusion_count;
  SnakeFlowSink* const flows = options.flows;
  std::size_t ptr = options.start;
  std::uint64_t moved = 0;
  for (std::size_t c = 0; c < columns; ++c) {
    std::int64_t* col = cells + c * rows;
    std::size_t skip = kNone;
    if (next_exclusion != exclusions_end && next_exclusion->column == c) {
      skip = next_exclusion->row;
      ++next_exclusion;
      DLB_REQUIRE(skip < rows, "excluded row out of range");
    } else if (flows == nullptr) {
      moved += static_cast<std::uint64_t>(deal_column<kRows>(col, rows, ptr));
      continue;
    }
    // Pool the column over the dealt rows; the excluded row is neither
    // pooled nor sign-checked.
    std::int64_t pool = 0;
    std::int64_t sign = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const std::int64_t v = r == skip ? 0 : col[r];
      pool += v;
      sign |= v;
    }
    DLB_REQUIRE(sign >= 0, "negative packet count");
    const std::size_t parties = rows - (skip != kNone ? 1 : 0);
    if (parties == 0) continue;  // the only row is excluded (rows == 1)
    const auto m = static_cast<std::int64_t>(parties);
    const std::int64_t base = pool < m ? 0 : pool / m;
    const auto rem = static_cast<std::size_t>(pool - base * m);
    // The excluded row sits `s` places after the pointer (s = rows
    // without an exclusion).  The pointer passes the rem dealt rows, and
    // the excluded row too when it lies among them; that run of
    // `advance` rows, minus the excluded row, gets the +1.  The excluded
    // row's target is never read.
    const std::size_t s =
        skip == kNone ? rows : (skip >= ptr ? skip - ptr : skip + rows - ptr);
    const std::size_t advance = rem + (s < rem ? 1 : 0);
    const PlusRun<kRows> plus(rows, ptr, advance);
    const auto target = [&](std::size_t r) { return base + plus(r); };
    if (flows == nullptr) {  // excluded row, aggregate accounting
      std::int64_t surplus = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        if (r == skip) continue;
        const std::int64_t v = target(r);
        const std::int64_t give = col[r] - v;
        surplus += give > 0 ? give : 0;
        col[r] = v;
      }
      moved += static_cast<std::uint64_t>(surplus);
    } else {
      // Greedy matching on the cells in place: surplus rows (above their
      // target) against deficit rows (below it), both in ascending row
      // order.  Column totals are conserved, so the cells end at their
      // targets when either side runs out.
      std::size_t give = 0;
      std::size_t take = 0;
      while (true) {
        while (give < rows && (give == skip || col[give] <= target(give)))
          ++give;
        while (take < rows && (take == skip || col[take] >= target(take)))
          ++take;
        if (give >= rows || take >= rows) break;
        const std::int64_t lost = col[give] - target(give);
        const std::int64_t gained = target(take) - col[take];
        const std::int64_t amount = lost < gained ? lost : gained;
        flows->on_flow(c, give, take, amount);
        moved += static_cast<std::uint64_t>(amount);
        col[give] -= amount;
        col[take] += amount;
      }
    }
    ptr += advance;
    if (ptr >= rows) ptr -= rows;
  }
  DLB_REQUIRE(next_exclusion == exclusions_end,
              "exclusions must be strictly ascending by column and name "
              "columns of the matrix");
  return {ptr, moved};
}

}  // namespace

std::size_t snake_redistribute(
    std::vector<std::vector<std::int64_t>>& counts,
    const SnakeOptions& options) {
  const std::size_t m = counts.size();
  DLB_REQUIRE(m >= 1, "snake_redistribute needs participants");
  const std::size_t classes = counts[0].size();
  for (const auto& row : counts)
    DLB_REQUIRE(row.size() == classes, "ragged count matrix");
  DLB_REQUIRE(options.start < m || m == 0, "dealing start out of range");
  const auto* excluded = options.excluded_participant_per_class;
  DLB_REQUIRE(excluded == nullptr || excluded->size() == classes,
              "exclusion vector must have one entry per class");

  std::size_t ptr = options.start;
  for (std::size_t j = 0; j < classes; ++j) {
    const std::size_t skip =
        excluded ? (*excluded)[j] : static_cast<std::size_t>(-1);
    // Pool the class over the participating (non-excluded) rows.
    std::int64_t pool = 0;
    std::size_t dealt_to = 0;
    for (std::size_t p = 0; p < m; ++p) {
      if (p == skip) continue;
      DLB_REQUIRE(counts[p][j] >= 0, "negative packet count");
      pool += counts[p][j];
      ++dealt_to;
    }
    if (dealt_to == 0) continue;  // every participant excluded (m==1 case)
    const std::int64_t base = pool / static_cast<std::int64_t>(dealt_to);
    std::int64_t remainder = pool % static_cast<std::int64_t>(dealt_to);
    for (std::size_t p = 0; p < m; ++p) {
      if (p == skip) continue;
      counts[p][j] = base;
    }
    // Deal the remainder with the circulating pointer, skipping the
    // excluded row without advancing the global deal for it.
    while (remainder > 0) {
      if (ptr != skip) {
        counts[ptr][j] += 1;
        --remainder;
      }
      ptr = (ptr + 1) % m;
    }
  }
  return ptr;
}

SnakeDealResult snake_deal_columns(std::int64_t* cells, std::size_t rows,
                                   std::size_t columns,
                                   const SnakeColumnOptions& options) {
  DLB_REQUIRE(cells != nullptr || columns == 0, "null column matrix");
  DLB_REQUIRE(rows >= 1, "snake deal needs participants");
  DLB_REQUIRE(options.start < rows, "dealing start out of range");
  DLB_REQUIRE(options.exclusions != nullptr || options.exclusion_count == 0,
              "null exclusion list");
  const bool plain = options.exclusion_count == 0 && options.flows == nullptr;
  return detail::with_row_count(rows, [&](auto fixed) {
    constexpr std::size_t kRows = decltype(fixed)::value;
    return plain ? deal_plain<kRows>(cells, rows, columns, options.start)
                 : deal_general<kRows>(cells, rows, columns, options);
  });
}

}  // namespace dlb
