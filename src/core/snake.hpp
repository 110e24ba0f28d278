// Snake-like redistribution (the appendix's "snake like distribution of
// packets").
//
// A balancing operation must reassign the participants' packets so that,
// simultaneously,
//   (S1) for every load class j the per-participant counts differ by <= 1,
//   (S2) the per-participant row totals differ by <= 1.
// Dealing each class's remainder with a *circulating* pointer achieves
// both: concatenated over classes, the remainder assignments form one
// round-robin deal of R = sum_j r_j extra packets over m participants, so
// each participant receives floor(R/m) or ceil(R/m) extras — which is
// exactly (S2), while each class individually satisfies (S1) by
// construction.  (Property-tested in tests/core/snake_test.cpp.)
//
// Two entry points share that dealing logic:
//   * the dense overload takes an m x n matrix over every load class —
//     the reference implementation, kept for tests and small callers;
//   * snake_deal_columns takes a flat column-major m x k matrix whose k
//     columns are an arbitrary (ascending) subset of the classes — the
//     balance deal passes only the classes some participant holds.  A
//     column that is all zero never advances the circulating pointer
//     (its pool and remainder are zero), so dealing over the nonzero
//     subset is bit-identical to dealing over all n classes.  Each
//     column is dealt in straight-line code: with pool = base * m + r,
//     the run of rows ptr .. ptr + r - 1 (mod m) gets base + 1 and the
//     rest base; for the row counts with_row_count fixes, the run is a
//     rotated bitmask, so no row compares against ptr.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

namespace dlb {

/// Options for snake_redistribute.
struct SnakeOptions {
  /// Initial dealing position in [0, participants).  Callers pass a
  /// random start so the remainder packets do not systematically favor
  /// low-indexed participants.
  std::size_t start = 0;

  /// [D7] Analysis-mode exclusion: if non-null, entry j holds the index
  /// (into the participant array) of a participant excluded from the
  /// dealing of class j — its class-j packets stay put and it receives
  /// none — or SIZE_MAX for "no exclusion".  With exclusions active, (S2)
  /// is not guaranteed (the §4 proof does not need it for excluded
  /// classes).
  const std::vector<std::size_t>* excluded_participant_per_class = nullptr;
};

/// Receives the per-column packet flows of snake_deal_columns: after
/// each column is dealt, its surplus rows are greedily matched (both
/// sides in ascending row order) against its deficit rows and each
/// resulting flow is reported once.  Only callers that attribute traffic
/// to (from, to) pairs — a migration recorder, hop-weighted costs — pass
/// a sink; the matching is skipped otherwise.
class SnakeFlowSink {
 public:
  virtual ~SnakeFlowSink() = default;
  /// `amount` (> 0) packets of column `col`'s class move from participant
  /// row `from` to participant row `to`.
  virtual void on_flow(std::size_t col, std::size_t from, std::size_t to,
                       std::int64_t amount) = 0;
};

/// [D7] exclusion for snake_deal_columns: participant row `row` keeps its
/// count of column `column` and receives none of that column's pool.
struct SnakeExclusion {
  std::size_t column = 0;
  std::size_t row = 0;
};

/// Options for snake_deal_columns.
struct SnakeColumnOptions {
  /// Initial dealing position in [0, rows).
  std::size_t start = 0;

  /// Exclusions, strictly ascending by column, each row < rows.
  const SnakeExclusion* exclusions = nullptr;
  std::size_t exclusion_count = 0;

  /// Optional pair-flow observer.
  SnakeFlowSink* flows = nullptr;
};

/// What a column deal returns besides the dealt cells.
struct SnakeDealResult {
  /// Final dealing pointer: the start of a chained deal (real packets
  /// then borrow markers) that must stay balanced as a whole.
  std::size_t ptr = 0;
  /// Gross moves: the sum over columns of the packets that left their
  /// row (each column's surplus; equal to the sum of reported flows).
  std::uint64_t moved = 0;
};

/// Redistributes counts[p][j] (participant p, class j) in place subject to
/// (S1)/(S2).  All rows must have equal length; counts must be
/// non-negative.  Returns the final dealing pointer (useful when chaining
/// two matrices, e.g. real packets then borrow markers, so their combined
/// deal stays balanced).
std::size_t snake_redistribute(std::vector<std::vector<std::int64_t>>& counts,
                               const SnakeOptions& options = {});

/// Column kernel: `cells` is a flat column-major `rows` x `columns`
/// matrix (column c occupies cells[c * rows, (c + 1) * rows)) whose
/// columns are the active-class subset.  Deals in place, reports pair
/// flows through options.flows (if set) and returns the final pointer
/// and the gross moves.  Bit-identical to the dense overload restricted
/// to the nonzero columns (see the header comment).
SnakeDealResult snake_deal_columns(std::int64_t* cells, std::size_t rows,
                                   std::size_t columns,
                                   const SnakeColumnOptions& options);

namespace detail {

/// Calls f(std::integral_constant<std::size_t, M>{}) with M = rows for
/// the small participant counts the drivers deal with (delta + 1 <= 9),
/// so per-row loops unroll at compile time; M = 0 means "read rows".
template <typename F>
decltype(auto) with_row_count(std::size_t rows, F&& f) {
  switch (rows) {
    case 2: return f(std::integral_constant<std::size_t, 2>{});
    case 3: return f(std::integral_constant<std::size_t, 3>{});
    case 4: return f(std::integral_constant<std::size_t, 4>{});
    case 5: return f(std::integral_constant<std::size_t, 5>{});
    case 6: return f(std::integral_constant<std::size_t, 6>{});
    case 7: return f(std::integral_constant<std::size_t, 7>{});
    case 8: return f(std::integral_constant<std::size_t, 8>{});
    case 9: return f(std::integral_constant<std::size_t, 9>{});
    default: return f(std::integral_constant<std::size_t, 0>{});
  }
}

}  // namespace detail

}  // namespace dlb
