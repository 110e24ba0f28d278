#include "core/snake.hpp"

#include "support/check.hpp"

namespace dlb {

namespace {

// Deals one column with no excluded row: rows ptr .. ptr + rem - 1
// (mod rows) get base + 1, the rest base, with no remainder loop and no
// branch per row; the sign checks fold into one OR.  Advances ptr and
// returns the column's surplus (the packets that left their row).
// kRows > 0 fixes the row count at compile time (0: read `rows`).
template <std::size_t kRows>
std::int64_t deal_column(std::int64_t* col, std::size_t dyn_rows,
                         std::size_t& ptr) {
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
  const auto m = static_cast<std::int64_t>(rows);
  const std::int64_t base = pool < m ? 0 : pool / m;
  const auto rem = static_cast<std::size_t>(pool - base * m);
  std::int64_t surplus = 0;
#pragma GCC unroll 9
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t off = r >= ptr ? r - ptr : r + rows - ptr;
    const std::int64_t v = base + (off < rem ? 1 : 0);
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
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const SnakeExclusion* next_exclusion = options.exclusions;
  const SnakeExclusion* const exclusions_end =
      options.exclusions + options.exclusion_count;
  SnakeFlowSink* const flows = options.flows;
  if (options.exclusion_count == 0 && flows == nullptr) {
    return detail::with_row_count(rows, [&](auto fixed) {
      return deal_plain<decltype(fixed)::value>(cells, rows, columns,
                                                options.start);
    });
  }
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
      moved += static_cast<std::uint64_t>(deal_column<0>(col, rows, ptr));
      continue;
    }
    // General column (an excluded row, or pair flows wanted).  Pool the
    // column over the dealt rows; the excluded row is neither pooled nor
    // sign-checked.
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
    // Row r sits `off` places after the pointer; the excluded row's
    // offset `s` is stepped over, so the dealt rows after it rank one
    // lower.  Rows of rank < rem get the +1.  Without an exclusion
    // s = rows and the rank is the offset.
    const std::size_t s =
        skip == kNone ? rows : (skip >= ptr ? skip - ptr : skip + rows - ptr);
    const auto target = [&](std::size_t r) -> std::int64_t {
      const std::size_t off = r >= ptr ? r - ptr : r + rows - ptr;
      const std::size_t rank = off - (off > s ? 1 : 0);
      return base + (rank < rem ? 1 : 0);
    };
    // The pointer passes the rem dealt rows, and the excluded row too
    // when it lies among them.
    const std::size_t advance = rem + (s < rem ? 1 : 0);
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

}  // namespace dlb
