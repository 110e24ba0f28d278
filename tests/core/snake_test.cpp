#include "core/snake.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <tuple>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

using Matrix = std::vector<std::vector<std::int64_t>>;

std::int64_t row_total(const Matrix& m, std::size_t r) {
  return std::accumulate(m[r].begin(), m[r].end(), std::int64_t{0});
}

std::int64_t column_total(const Matrix& m, std::size_t j) {
  std::int64_t total = 0;
  for (const auto& row : m) total += row[j];
  return total;
}

void expect_s1_s2(const Matrix& m) {
  const std::size_t rows = m.size();
  const std::size_t cols = m[0].size();
  // (S1) per-class spread <= 1
  for (std::size_t j = 0; j < cols; ++j) {
    std::int64_t lo = m[0][j];
    std::int64_t hi = m[0][j];
    for (std::size_t r = 1; r < rows; ++r) {
      lo = std::min(lo, m[r][j]);
      hi = std::max(hi, m[r][j]);
    }
    EXPECT_LE(hi - lo, 1) << "class " << j;
  }
  // (S2) row-total spread <= 1
  std::int64_t lo = row_total(m, 0);
  std::int64_t hi = lo;
  for (std::size_t r = 1; r < rows; ++r) {
    lo = std::min(lo, row_total(m, r));
    hi = std::max(hi, row_total(m, r));
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(Snake, SimpleTwoPartyEqualization) {
  Matrix counts{{10, 0}, {0, 0}};
  snake_redistribute(counts);
  expect_s1_s2(counts);
  EXPECT_EQ(column_total(counts, 0), 10);
  EXPECT_EQ(column_total(counts, 1), 0);
}

TEST(Snake, ConservesEveryClass) {
  Matrix counts{{3, 7, 1}, {0, 2, 9}, {5, 5, 5}};
  const Matrix before = counts;
  snake_redistribute(counts);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_EQ(column_total(counts, j), column_total(before, j));
  expect_s1_s2(counts);
}

// Captures on_flow callbacks for inspection.
struct RecordingSink final : SnakeFlowSink {
  struct Flow {
    std::size_t col;
    std::size_t from;
    std::size_t to;
    std::int64_t amount;
    bool operator==(const Flow& o) const {
      return col == o.col && from == o.from && to == o.to &&
             amount == o.amount;
    }
  };
  std::vector<Flow> flows;
  std::uint64_t total = 0;

  void on_flow(std::size_t col, std::size_t from, std::size_t to,
               std::int64_t amount) override {
    flows.push_back({col, from, to, amount});
    total += static_cast<std::uint64_t>(amount);
  }
};

// Runs the column kernel on a column-major copy of `m`, returning the
// dealt cells (cell (r, c) at c * rows + r), the continuation pointer,
// the gross moves and the recorded flows.  `excluded` is the dense
// overload's per-class exclusion vector; without a sink the kernel takes
// its aggregate path.
struct CompactRun {
  std::vector<std::int64_t> counts;
  SnakeDealResult result;
  RecordingSink sink;

  std::int64_t at(std::size_t rows, std::size_t r, std::size_t c) const {
    return counts[c * rows + r];
  }
};

CompactRun run_compact(const Matrix& m, std::size_t start,
                       const std::vector<std::size_t>* excluded = nullptr,
                       bool with_sink = true) {
  CompactRun out;
  const std::size_t rows = m.size();
  const std::size_t cols = m[0].size();
  out.counts.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) out.counts[c * rows + r] = m[r][c];
  std::vector<SnakeExclusion> exclusions;
  if (excluded != nullptr)
    for (std::size_t c = 0; c < cols; ++c)
      if ((*excluded)[c] < rows) exclusions.push_back({c, (*excluded)[c]});
  SnakeColumnOptions opts;
  opts.start = start;
  if (with_sink) opts.flows = &out.sink;
  opts.exclusions = exclusions.data();
  opts.exclusion_count = exclusions.size();
  out.result = snake_deal_columns(out.counts.data(), rows, cols, opts);
  return out;
}

TEST(Snake, AlreadyBalancedIsStable) {
  Matrix counts{{2, 2}, {2, 2}, {2, 2}};
  const Matrix before = counts;
  snake_redistribute(counts);
  EXPECT_EQ(counts, before);
  // ... and the column kernel reports no flows on balanced input.
  const CompactRun run = run_compact(before, 0);
  EXPECT_TRUE(run.sink.flows.empty());
  EXPECT_EQ(run.sink.total, 0u);
  EXPECT_EQ(run.result.moved, 0u);
}

TEST(Snake, SingleParticipantIsIdentity) {
  Matrix counts{{4, 9, 0}};
  const Matrix before = counts;
  snake_redistribute(counts);
  EXPECT_EQ(counts, before);
}

TEST(Snake, StartPointerRotatesRemainder) {
  Matrix a{{5, 0}, {0, 0}};
  Matrix b = a;
  SnakeOptions o1;
  o1.start = 0;
  SnakeOptions o2;
  o2.start = 1;
  snake_redistribute(a, o1);
  snake_redistribute(b, o2);
  // Pool of 5 over 2: one side gets 3, the other 2; the start pointer
  // decides which.
  EXPECT_EQ(a[0][0] + a[1][0], 5);
  EXPECT_EQ(b[0][0] + b[1][0], 5);
  EXPECT_NE(a[0][0], b[0][0]);
}

TEST(Snake, ReturnsContinuationPointer) {
  Matrix counts{{5, 4}, {0, 0}, {0, 0}};
  SnakeOptions opts;
  opts.start = 0;
  const std::size_t ptr = snake_redistribute(counts, opts);
  // 5 % 3 = 2 remainder deals + 4 % 3 = 1 -> pointer advanced 3 (mod 3).
  EXPECT_EQ(ptr, 0u);
  expect_s1_s2(counts);
}

TEST(Snake, ExclusionKeepsExcludedRowUntouched) {
  Matrix counts{{9, 0}, {0, 0}, {3, 0}};
  std::vector<std::size_t> excluded{0, static_cast<std::size_t>(-1)};
  SnakeOptions opts;
  opts.excluded_participant_per_class = &excluded;
  snake_redistribute(counts, opts);
  // Row 0 keeps its 9 packets of class 0; rows 1 and 2 share the 3.
  EXPECT_EQ(counts[0][0], 9);
  EXPECT_EQ(counts[1][0] + counts[2][0], 3);
  EXPECT_LE(std::abs(counts[1][0] - counts[2][0]), 1);
}

TEST(Snake, RejectsBadInputs) {
  Matrix empty;
  EXPECT_THROW(snake_redistribute(empty), contract_error);
  Matrix ragged{{1, 2}, {1}};
  EXPECT_THROW(snake_redistribute(ragged), contract_error);
  Matrix negative{{-1}};
  EXPECT_THROW(snake_redistribute(negative), contract_error);
  Matrix ok{{1}, {2}};
  SnakeOptions opts;
  opts.start = 5;
  EXPECT_THROW(snake_redistribute(ok, opts), contract_error);
}

TEST(SnakeFlows, ReportsReceivedPackets) {
  // {4,0} / {0,2} with start 0 deals class 0 as 2/2 and class 1 as 1/1:
  // 2 class-0 packets flow row0 -> row1 and 1 class-1 packet row1 -> row0.
  const Matrix before{{4, 0}, {0, 2}};
  const CompactRun run = run_compact(before, 0);
  ASSERT_EQ(run.sink.flows.size(), 2u);
  EXPECT_EQ(run.sink.flows[0], (RecordingSink::Flow{0, 0, 1, 2}));
  EXPECT_EQ(run.sink.flows[1], (RecordingSink::Flow{1, 1, 0, 1}));
  EXPECT_EQ(run.sink.total, 3u);
  EXPECT_EQ(run.result.moved, 3u);
  // The aggregate path (no sink) deals the same cells and totals.
  const CompactRun bulk = run_compact(before, 0, nullptr, false);
  EXPECT_EQ(bulk.counts, run.counts);
  EXPECT_EQ(bulk.result.moved, 3u);
}

TEST(SnakeFlows, CompactRejectsBadInputs) {
  std::vector<std::int64_t> counts{1, 2};
  SnakeColumnOptions opts;
  EXPECT_THROW(snake_deal_columns(nullptr, 1, 2, opts), contract_error);
  EXPECT_THROW(snake_deal_columns(counts.data(), 0, 2, opts), contract_error);
  opts.start = 3;
  EXPECT_THROW(snake_deal_columns(counts.data(), 2, 1, opts), contract_error);
  opts.start = 0;
  // Exclusions must name rows and columns of the matrix, ascending.
  const SnakeExclusion bad_row[] = {{0, 2}};
  opts.exclusions = bad_row;
  opts.exclusion_count = 1;
  EXPECT_THROW(snake_deal_columns(counts.data(), 2, 1, opts), contract_error);
  const SnakeExclusion bad_column[] = {{1, 0}};
  opts.exclusions = bad_column;
  EXPECT_THROW(snake_deal_columns(counts.data(), 2, 1, opts), contract_error);
  std::vector<std::int64_t> wide{1, 2, 3, 4};
  const SnakeExclusion descending[] = {{1, 0}, {0, 0}};
  opts.exclusions = descending;
  opts.exclusion_count = 2;
  EXPECT_THROW(snake_deal_columns(wide.data(), 2, 2, opts), contract_error);
  opts.exclusions = nullptr;
  opts.exclusion_count = 0;
  // A negative count is rejected on both the aggregate and the pair path.
  counts = {-1, 2};
  EXPECT_THROW(snake_deal_columns(counts.data(), 2, 1, opts), contract_error);
  RecordingSink sink;
  opts.flows = &sink;
  counts = {-1, 2};
  EXPECT_THROW(snake_deal_columns(counts.data(), 2, 1, opts), contract_error);
  // No columns: nothing to deal, the pointer stays.
  opts.start = 1;
  const SnakeDealResult none = snake_deal_columns(nullptr, 2, 0, opts);
  EXPECT_EQ(none.ptr, 1u);
  EXPECT_EQ(none.moved, 0u);
}

// All-zero columns must be invisible to the deal: same results for the
// surviving columns, same continuation pointer, same flows.  This is the
// property System::balance relies on when it restricts the deal to the
// union of the participants' active classes.
TEST(SnakeFlows, ZeroColumnsDoNotAffectDealOrPointer) {
  const Matrix dense{{0, 4, 0, 0, 1}, {0, 0, 0, 2, 0}, {0, 7, 0, 0, 0}};
  const Matrix compact{{4, 0, 1}, {0, 2, 0}, {7, 0, 0}};  // columns 1, 3, 4
  const std::vector<std::size_t> col_map{1, 3, 4};
  for (std::size_t start = 0; start < 3; ++start) {
    const CompactRun dense_run = run_compact(dense, start);
    const CompactRun compact_run = run_compact(compact, start);
    EXPECT_EQ(dense_run.result.ptr, compact_run.result.ptr)
        << "start " << start;
    EXPECT_EQ(dense_run.result.moved, compact_run.result.moved);
    ASSERT_EQ(dense_run.sink.flows.size(), compact_run.sink.flows.size());
    for (std::size_t i = 0; i < dense_run.sink.flows.size(); ++i) {
      RecordingSink::Flow mapped = compact_run.sink.flows[i];
      mapped.col = col_map[mapped.col];
      EXPECT_EQ(dense_run.sink.flows[i], mapped) << "flow " << i;
    }
    for (std::size_t r = 0; r < 3; ++r)
      for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(dense_run.at(3, r, col_map[c]), compact_run.at(3, r, c));
  }
}

// ---- The +1 rule, exhaustively: every row count, start and residue -----
//
// A column deal gives one packet more to the run of rows that follows the
// circulating pointer.  The column kernel picks that run from (rows, ptr,
// remainder): by a rotated bitmask for the row counts
// detail::with_row_count fixes (2..9) and by an offset compare for any
// other count (1 and 10 here).  For each row count the matrix below is
// dealt from every start, so every column meets every pointer position;
// its columns pool to every residue mod rows, as 0/1 marker-like cells
// and as larger counts.  Cells, continuation pointer and gross moves must
// match snake_redistribute on the aggregate path, on the pair-flow path
// and with one excluded row per column.

// One empty column, then for each residue t < rows: t marker-like 1s on
// rows t, t + 1, ... (mod rows); a pool of rows + t on one row; and a
// pool of 3 * rows + t spread at random.
Matrix residue_matrix(std::size_t rows) {
  Matrix m(rows, std::vector<std::int64_t>(1 + 3 * rows, 0));
  Rng rng(0x5eed0 + rows);
  for (std::size_t t = 0; t < rows; ++t) {
    const std::size_t col = 1 + 3 * t;
    for (std::size_t i = 0; i < t; ++i) m[(t + i) % rows][col] = 1;
    m[t][col + 1] = static_cast<std::int64_t>(rows + t);
    for (std::size_t left = 3 * rows + t; left > 0; --left)
      m[rng.below(rows)][col + 2] += 1;
  }
  return m;
}

// Deals `before` with the column kernel and with snake_redistribute from
// `start` and expects the same cells, pointer and gross moves.
void expect_column_deal_matches_dense(
    const Matrix& before, std::size_t start,
    const std::vector<std::size_t>* excluded, bool with_sink) {
  SCOPED_TRACE(::testing::Message() << "start " << start << ", sink "
                                    << with_sink);
  Matrix dense = before;
  SnakeOptions opts;
  opts.start = start;
  opts.excluded_participant_per_class = excluded;
  const std::size_t dense_ptr = snake_redistribute(dense, opts);
  const CompactRun run = run_compact(before, start, excluded, with_sink);
  const std::size_t rows = before.size();
  std::uint64_t received = 0;
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < before[r].size(); ++j) {
      EXPECT_EQ(run.at(rows, r, j), dense[r][j]) << "row " << r << " col "
                                                  << j;
      if (dense[r][j] > before[r][j])
        received += static_cast<std::uint64_t>(dense[r][j] - before[r][j]);
    }
  EXPECT_EQ(run.result.ptr, dense_ptr);
  EXPECT_EQ(run.result.moved, received);
  if (with_sink) {
    EXPECT_EQ(run.sink.total, received);
  }
}

class SnakeRule : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SnakeRule, ColumnsMatchDenseFromEveryStart) {
  const std::size_t rows = GetParam();
  const Matrix before = residue_matrix(rows);
  for (std::size_t start = 0; start < rows; ++start)
    for (const bool with_sink : {false, true})
      expect_column_deal_matches_dense(before, start, nullptr, with_sink);
}

// Every third column deals over all rows; the others exclude row
// shift + c (mod rows), so with the start sweep the excluded row sits at
// every offset from the pointer.
TEST_P(SnakeRule, ExcludedRowColumnsMatchDenseFromEveryStart) {
  const std::size_t rows = GetParam();
  const Matrix before = residue_matrix(rows);
  const std::size_t cols = before[0].size();
  for (std::size_t shift = 0; shift < rows; ++shift) {
    std::vector<std::size_t> excluded(cols);
    for (std::size_t c = 0; c < cols; ++c)
      excluded[c] = c % 3 == 2 ? static_cast<std::size_t>(-1)
                               : (shift + c) % rows;
    for (std::size_t start = 0; start < rows; ++start)
      for (const bool with_sink : {false, true})
        expect_column_deal_matches_dense(before, start, &excluded,
                                         with_sink);
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, SnakeRule,
                         ::testing::Range<std::size_t>(1, 11),
                         [](const ::testing::TestParamInfo<std::size_t>& ti) {
                           return "rows" + std::to_string(ti.param);
                         });

// ---- Property sweep: random matrices, all sizes ------------------------

struct SnakeCase {
  std::size_t participants;
  std::size_t classes;
  std::uint64_t seed;
};

class SnakeProperty : public ::testing::TestWithParam<SnakeCase> {};

TEST_P(SnakeProperty, S1AndS2HoldAndMassIsConserved) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  Matrix counts(param.participants,
                std::vector<std::int64_t>(param.classes, 0));
  for (auto& row : counts)
    for (auto& cell : row)
      cell = static_cast<std::int64_t>(rng.below(40));
  const Matrix before = counts;
  SnakeOptions opts;
  opts.start = static_cast<std::size_t>(rng.below(param.participants));
  const std::size_t dense_ptr = snake_redistribute(counts, opts);
  for (std::size_t j = 0; j < param.classes; ++j)
    EXPECT_EQ(column_total(counts, j), column_total(before, j));
  expect_s1_s2(counts);

  // The column kernel must agree cell-for-cell with the dense overload,
  // hand back the same continuation pointer, and report gross moves (and
  // flows, on the pair path) whose total matches the packets actually
  // received — on the pair path and the aggregate path alike.
  const std::size_t rows = param.participants;
  for (const bool with_sink : {true, false}) {
    const CompactRun run = run_compact(before, opts.start, nullptr, with_sink);
    EXPECT_EQ(run.result.ptr, dense_ptr);
    std::uint64_t received = 0;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t j = 0; j < param.classes; ++j) {
        EXPECT_EQ(run.at(rows, r, j), counts[r][j]);
        if (run.at(rows, r, j) > before[r][j])
          received +=
              static_cast<std::uint64_t>(run.at(rows, r, j) - before[r][j]);
      }
    EXPECT_EQ(run.result.moved, received);
    if (with_sink) {
      EXPECT_EQ(run.sink.total, received);
    }
  }
}

// Exclusion ([D7]) property sweep: excluded rows keep their class count,
// the rest balance to ±1, and per-class mass is conserved.
class SnakeExclusionProperty : public ::testing::TestWithParam<SnakeCase> {};

TEST_P(SnakeExclusionProperty, ExcludedRowsUntouchedAndMassConserved) {
  const auto& param = GetParam();
  if (param.participants < 2) GTEST_SKIP();
  Rng rng(param.seed ^ 0xe8c1);
  Matrix counts(param.participants,
                std::vector<std::int64_t>(param.classes, 0));
  for (auto& row : counts)
    for (auto& cell : row)
      cell = static_cast<std::int64_t>(rng.below(25));
  // Random exclusions: roughly half the classes exclude a random row.
  std::vector<std::size_t> excluded(param.classes,
                                    static_cast<std::size_t>(-1));
  for (std::size_t j = 0; j < param.classes; ++j) {
    if (rng.bernoulli(0.5))
      excluded[j] = static_cast<std::size_t>(rng.below(param.participants));
  }
  const Matrix before = counts;
  SnakeOptions opts;
  opts.start = static_cast<std::size_t>(rng.below(param.participants));
  opts.excluded_participant_per_class = &excluded;
  const std::size_t dense_ptr = snake_redistribute(counts, opts);

  // Dense/column agreement under exclusions as well, on both paths.
  for (const bool with_sink : {true, false}) {
    const CompactRun run =
        run_compact(before, opts.start, &excluded, with_sink);
    EXPECT_EQ(run.result.ptr, dense_ptr);
    std::uint64_t received = 0;
    for (std::size_t r = 0; r < param.participants; ++r)
      for (std::size_t j = 0; j < param.classes; ++j) {
        const std::int64_t got = run.at(param.participants, r, j);
        EXPECT_EQ(got, counts[r][j]);
        if (got > before[r][j])
          received += static_cast<std::uint64_t>(got - before[r][j]);
      }
    EXPECT_EQ(run.result.moved, received);
    if (with_sink) {
      EXPECT_EQ(run.sink.total, received);
    }
  }

  for (std::size_t j = 0; j < param.classes; ++j) {
    EXPECT_EQ(column_total(counts, j), column_total(before, j));
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (std::size_t r = 0; r < param.participants; ++r) {
      if (r == excluded[j]) {
        EXPECT_EQ(counts[r][j], before[r][j]) << "excluded row moved";
        continue;
      }
      lo = std::min(lo, counts[r][j]);
      hi = std::max(hi, counts[r][j]);
    }
    if (excluded[j] >= param.participants ||
        param.participants > 1) {
      EXPECT_LE(hi - lo, 1) << "class " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnakeExclusionProperty,
    ::testing::Values(SnakeCase{2, 8, 21}, SnakeCase{3, 16, 22},
                      SnakeCase{5, 32, 23}, SnakeCase{8, 8, 24},
                      SnakeCase{4, 64, 25}),
    [](const ::testing::TestParamInfo<SnakeCase>& ti) {
      return "m" + std::to_string(ti.param.participants) + "_c" +
             std::to_string(ti.param.classes) + "_s" +
             std::to_string(ti.param.seed);
    });

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnakeProperty,
    ::testing::Values(
        SnakeCase{2, 1, 1}, SnakeCase{2, 5, 2}, SnakeCase{3, 3, 3},
        SnakeCase{4, 10, 4}, SnakeCase{5, 64, 5}, SnakeCase{8, 8, 6},
        SnakeCase{7, 33, 7}, SnakeCase{2, 64, 8}, SnakeCase{16, 16, 9},
        SnakeCase{3, 100, 10}, SnakeCase{6, 2, 11}, SnakeCase{9, 40, 12}),
    [](const ::testing::TestParamInfo<SnakeCase>& ti) {
      return "m" + std::to_string(ti.param.participants) + "_c" +
             std::to_string(ti.param.classes) + "_s" +
             std::to_string(ti.param.seed);
    });

}  // namespace
}  // namespace dlb
