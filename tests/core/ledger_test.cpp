#include "core/ledger.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {
namespace {

// The ledger's active-class view as a vector, for whole-list compares.
std::vector<std::uint32_t> active_list(const Ledger& ledger) {
  const auto active = ledger.active_classes();
  return {active.begin(), active.end()};
}

// The classes with b > 0, ascending (L4), read off the records.
std::vector<std::uint32_t> marked_list(const Ledger& ledger) {
  std::vector<std::uint32_t> marked;
  for (const Ledger::Entry& e : ledger.records())
    if (e.b != 0) marked.push_back(e.cls);
  return marked;
}

// The record just past the live ones, which must be the sentinel.
const Ledger::Entry& end_record(const Ledger& ledger) {
  return ledger.records().data()[ledger.records().size()];
}

// Rebuilds the ledger from dense rows through rebuild_dealt (stride 1),
// as checkpoint restore does: every class is a column, so the list
// covers whatever is active.
void rebuild_from_dense(Ledger& ledger, const std::vector<std::int64_t>& d,
                        const std::vector<std::int64_t>& b) {
  std::vector<std::uint32_t> cls(ledger.classes());
  for (std::uint32_t j = 0; j < ledger.classes(); ++j) cls[j] = j;
  ledger.rebuild_dealt(cls.data(), cls.size(), d.data(), b.data(), 1);
}

TEST(Ledger, StartsEmpty) {
  Ledger ledger(4, 0);
  EXPECT_EQ(ledger.classes(), 4u);
  EXPECT_EQ(ledger.real_load(), 0);
  EXPECT_EQ(ledger.borrowed_total(), 0);
  EXPECT_EQ(ledger.virtual_load(), 0);
  // An empty ledger reads the shared sentinel and owns no memory.
  EXPECT_EQ(ledger.memory_bytes(), 0u);
  EXPECT_EQ(end_record(ledger).cls, Ledger::kEndClass);
  EXPECT_EQ(ledger.d(0), 0);
  EXPECT_EQ(ledger.b(3), 0);
  ledger.check(4);
}

TEST(Ledger, MovesHandOverTheRecords) {
  Ledger ledger(6, 2);
  ledger.add_real(2, 3);
  ledger.add_real(5, 1);
  ASSERT_EQ(ledger.borrow_nth(1), 5u);
  Ledger moved(std::move(ledger));
  EXPECT_EQ(moved.d(2), 3);
  EXPECT_EQ(moved.b(5), 1);
  moved.check(1);
  Ledger other(6, 2);
  other = std::move(moved);
  EXPECT_EQ(other.d(2), 3);
  EXPECT_EQ(other.borrowed_total(), 1);
  other.check(1);
}

TEST(Ledger, AddRemoveRealKeepsSums) {
  Ledger ledger(3, 0);
  ledger.add_real(0, 5);
  ledger.add_real(2, 3);
  EXPECT_EQ(ledger.d(0), 5);
  EXPECT_EQ(ledger.d(2), 3);
  EXPECT_EQ(ledger.real_load(), 8);
  ledger.remove_real(0, 2);
  EXPECT_EQ(ledger.d(0), 3);
  EXPECT_EQ(ledger.real_load(), 6);
  ledger.check(0);
}

TEST(Ledger, RemoveMoreThanHeldThrows) {
  Ledger ledger(2, 0);
  ledger.add_real(0, 1);
  EXPECT_THROW(ledger.remove_real(0, 2), contract_error);
  EXPECT_THROW(ledger.remove_real(1, 1), contract_error);
}

TEST(Ledger, BorrowConvertsRealIntoMarker) {
  Ledger ledger(3, 0);
  ledger.add_real(1, 2);
  ASSERT_EQ(ledger.borrow_nth(0), 1u);
  EXPECT_EQ(ledger.d(1), 1);
  EXPECT_EQ(ledger.b(1), 1);
  EXPECT_EQ(ledger.real_load(), 1);
  EXPECT_EQ(ledger.borrowed_total(), 1);
  // Virtual load is preserved by borrowing.
  EXPECT_EQ(ledger.virtual_load(), 2);
  ledger.check(1);
}

TEST(Ledger, BorrowRequiresRealPacketAndNoExistingMarker) {
  Ledger ledger(2, 0);
  EXPECT_THROW(ledger.borrow_nth(0), contract_error);  // no packet
  ledger.add_real(0, 2);
  ASSERT_EQ(ledger.borrow_nth(0), 0u);
  EXPECT_THROW(ledger.borrow_nth(0), contract_error);  // marker already set
}

TEST(Ledger, ClearMarker) {
  Ledger ledger(2, 0);
  ledger.add_real(1, 1);
  ASSERT_EQ(ledger.borrow_nth(0), 1u);
  ledger.clear_marker(1);
  EXPECT_EQ(ledger.b(1), 0);
  EXPECT_EQ(ledger.borrowed_total(), 0);
  EXPECT_THROW(ledger.clear_marker(1), contract_error);
}

TEST(Ledger, RepayWithGeneration) {
  Ledger ledger(2, 0);
  ledger.add_real(1, 1);
  ASSERT_EQ(ledger.borrow_nth(0), 1u);
  ASSERT_EQ(ledger.repay_nth_marked(0), 1u);
  EXPECT_EQ(ledger.b(1), 0);
  EXPECT_EQ(ledger.d(1), 1);
  EXPECT_EQ(ledger.real_load(), 1);
  EXPECT_THROW(ledger.repay_nth_marked(0), contract_error);
}

TEST(Ledger, ReplaceRecomputesSums) {
  Ledger ledger(3, 0);
  rebuild_from_dense(ledger, {1, 2, 3}, {0, 1, 0});
  EXPECT_EQ(ledger.real_load(), 6);
  EXPECT_EQ(ledger.borrowed_total(), 1);
  EXPECT_EQ(ledger.virtual_load(), 7);
  ledger.check(1);
}

TEST(Ledger, ReplaceValidatesShapeAndSign) {
  Ledger ledger(2, 0);
  ledger.add_real(0, 1);
  ledger.add_real(1, 1);
  // Fewer columns than active classes: rejected before any write.
  const std::uint32_t one_class[] = {1};
  const std::int64_t one_d[] = {1};
  EXPECT_THROW(ledger.rebuild_dealt(one_class, 1, one_d, nullptr, 1),
               contract_error);
  EXPECT_THROW(rebuild_from_dense(ledger, {-1, 0}, {0, 0}), contract_error);
  EXPECT_THROW(rebuild_from_dense(ledger, {0, 0}, {0, -2}), contract_error);
  // L2: at most one marker per class.
  EXPECT_THROW(rebuild_from_dense(ledger, {0, 0}, {0, 2}), contract_error);
}

TEST(Ledger, RebuildDealtRequiresSupersetOfActive) {
  Ledger ledger(6, 4);
  ledger.add_real(2, 3);
  ledger.add_real(4, 1);
  // Covering {2, 4} works and fully replaces the state (class 2 keeps
  // only a marker, class 1 is newly inserted).  The values are read with
  // stride 2, as one row of a two-participant dealt matrix (the other
  // row's cells hold junk), and the owner's class 4 comes back.
  const std::uint32_t cls[] = {1, 2, 4};
  const std::int64_t d_vals[] = {5, -7, 0, -7, 2, -7};
  const std::int64_t b_vals[] = {0, 9, 1, 9, 0, 9};
  const ClassCounts own = ledger.rebuild_dealt(cls, 3, d_vals, b_vals, 2);
  EXPECT_EQ(own.d, 2);
  EXPECT_EQ(own.b, 0);
  EXPECT_EQ(ledger.d(1), 5);
  EXPECT_EQ(ledger.d(2), 0);
  EXPECT_EQ(ledger.b(2), 1);
  EXPECT_EQ(ledger.d(4), 2);
  EXPECT_EQ(ledger.real_load(), 7);
  EXPECT_EQ(ledger.borrowed_total(), 1);
  EXPECT_EQ(marked_list(ledger), (std::vector<std::uint32_t>{2}));
  ledger.check(1);
  // Omitting an active class (2 still holds a marker) breaks the
  // superset precondition; with fewer classes than active entries the
  // contract check fires before any mutation.
  const std::uint32_t missing[] = {1, 4};
  const std::int64_t dv[] = {1, 1};
  EXPECT_THROW(ledger.rebuild_dealt(missing, 2, dv, nullptr, 1),
               contract_error);
  EXPECT_EQ(ledger.real_load(), 7);  // untouched by the rejected call
  EXPECT_EQ(ledger.borrowed_total(), 1);
  ledger.check(1);
  // Without marker values every b is zero.
  const std::uint32_t all[] = {1, 2, 3, 4};
  const std::int64_t fresh[] = {0, 2, 0, 3};
  const ClassCounts mine = ledger.rebuild_dealt(all, 4, fresh, nullptr, 1);
  EXPECT_EQ(mine.d, 3);
  EXPECT_EQ(mine.b, 0);
  EXPECT_EQ(active_list(ledger), (std::vector<std::uint32_t>{2, 4}));
  EXPECT_EQ(ledger.borrowed_total(), 0);
  EXPECT_TRUE(marked_list(ledger).empty());
  ledger.check(0);
  // An owner outside cls reads as zero.
  Ledger other(6, 5);
  const ClassCounts none = other.rebuild_dealt(all, 4, fresh, nullptr, 1);
  EXPECT_EQ(none.d, 0);
  EXPECT_EQ(none.b, 0);
  EXPECT_EQ(active_list(other), (std::vector<std::uint32_t>{2, 4}));
  other.check(0);
}

TEST(Ledger, RebuildDealtRejectsBadCells) {
  const std::uint32_t cls[] = {0, 1, 2};
  const std::uint32_t descending[] = {0, 2, 1};
  const std::uint32_t out_of_range[] = {0, 1, 3};
  const std::int64_t d_ok[] = {1, 2, 3};
  const std::int64_t d_negative[] = {1, -2, 3};
  const std::int64_t b_ok[] = {0, 1, 0};
  const std::int64_t b_two[] = {0, 2, 0};
  const std::int64_t b_negative[] = {0, -1, 0};
  Ledger ledger(3, 0);
  EXPECT_THROW(ledger.rebuild_dealt(cls, 3, d_negative, b_ok, 1),
               contract_error);
  EXPECT_THROW(ledger.rebuild_dealt(cls, 3, d_ok, b_two, 1),
               contract_error);
  EXPECT_THROW(ledger.rebuild_dealt(cls, 3, d_ok, b_negative, 1),
               contract_error);
  EXPECT_THROW(ledger.rebuild_dealt(descending, 3, d_ok, b_ok, 1),
               contract_error);
  EXPECT_THROW(ledger.rebuild_dealt(out_of_range, 3, d_ok, b_ok, 1),
               contract_error);
  EXPECT_THROW(ledger.rebuild_dealt(nullptr, 3, d_ok, b_ok, 1),
               contract_error);
  EXPECT_THROW(ledger.rebuild_dealt(cls, 3, d_ok, b_ok, 0),
               contract_error);
  Ledger fine(3, 1);
  const ClassCounts own = fine.rebuild_dealt(cls, 3, d_ok, b_ok, 1);
  EXPECT_EQ(own.d, 2);
  EXPECT_EQ(own.b, 1);
  fine.check(1);
}

TEST(Ledger, FirstMarkedClass) {
  Ledger ledger(4, 0);
  EXPECT_THROW(ledger.nth_marked(0), contract_error);
  ledger.add_real(2, 1);
  ASSERT_EQ(ledger.borrow_nth(0), 2u);
  EXPECT_EQ(ledger.nth_marked(0), 2u);
}

TEST(Ledger, PositionalOpsRejectOutOfRangeIndex) {
  Ledger ledger(6, 0);
  EXPECT_THROW(ledger.nth_marked(0), contract_error);
  EXPECT_THROW(ledger.repay_nth_marked(0), contract_error);
  EXPECT_THROW(ledger.borrow_nth(0), contract_error);
  ledger.add_real(2, 1);
  ledger.add_real(5, 1);
  ASSERT_EQ(ledger.borrow_nth(1), 5u);
  // One marked class (5) and one borrowable class (2).
  EXPECT_THROW(ledger.nth_marked(1), contract_error);
  EXPECT_THROW(ledger.repay_nth_marked(1), contract_error);
  EXPECT_THROW(ledger.borrow_nth(1), contract_error);
  // The rejected calls changed nothing.
  EXPECT_EQ(ledger.real_load(), 1);
  EXPECT_EQ(ledger.borrowed_total(), 1);
  EXPECT_EQ(ledger.borrowable(), 1u);
  EXPECT_EQ(ledger.nth_marked(0), 5u);
  ledger.check(1);
}

TEST(Ledger, CheckDetectsCapViolation) {
  Ledger ledger(3, 0);
  rebuild_from_dense(ledger, {0, 0, 0}, {1, 1, 1});
  EXPECT_THROW(ledger.check(2), contract_error);
  ledger.check(3);
}

TEST(Ledger, OutOfRangeClassThrows) {
  Ledger ledger(2, 0);
  EXPECT_THROW(ledger.add_real(2, 1), contract_error);
  EXPECT_THROW(ledger.remove_real(5, 0), contract_error);
}

// ---- Sparse-storage property test --------------------------------------
//
// The compact {class, b, d} records are the source of truth, so the
// test maintains its own trivial dense reference model (two plain O(n)
// vectors updated alongside every mutation) and checks the full ledger
// surface against it after every step:
//   - d(j)/b(j) point lookups, the owner's among them, and the
//     real/borrowed/virtual totals (L1, L2);
//   - the active and marked class lists' order and content (L3, L4),
//     and the positional views nth_marked(k)/borrowable();
//   - the records' counts, the sentinel past them, and the dense
//     materializations dense_d()/dense_b();
//   - Ledger::check, which verifies the storage invariants S1/S2 (no
//     zero entries, strictly ascending classes, the sentinel) and the
//     owner's slot.
// Exercises every mutator: add/remove (including absolute count
// assignments made of them), clear (settle), the positional
// borrow_nth/repay_nth_marked — both for a drawn class and for a drawn
// index — and rebuild_dealt: the restore shape (stride 1 over every
// class) for single-marker writes, wholesale replacements and random
// ascending class subsets, and the balance-deal shape (a strided matrix
// row over a random superset of the active list).

struct DenseReference {
  std::vector<std::int64_t> d;
  std::vector<std::int64_t> b;

  explicit DenseReference(std::uint32_t classes) : d(classes, 0), b(classes, 0) {}

  std::int64_t borrowed() const {
    std::int64_t total = 0;
    for (std::int64_t v : b) total += v;
    return total;
  }
};

void expect_matches_reference(const Ledger& ledger,
                              const DenseReference& ref, std::uint32_t cap,
                              std::uint32_t owner) {
  ledger.check(cap);  // L1-L4, S1/S2 and the owner's slot
  const auto classes = static_cast<std::uint32_t>(ref.d.size());
  // The owner's counts come from its kept slot, every other class's from
  // a search: both must agree with the reference.
  ASSERT_EQ(ledger.d(owner), ref.d[owner]);
  ASSERT_EQ(ledger.b(owner), ref.b[owner]);
  std::int64_t real = 0;
  std::int64_t borrowed = 0;
  std::vector<std::uint32_t> want_active;
  std::vector<std::uint32_t> want_marked;
  std::size_t want_borrowable = 0;
  for (std::uint32_t j = 0; j < classes; ++j) {
    ASSERT_EQ(ledger.d(j), ref.d[j]) << "class " << j;
    ASSERT_EQ(ledger.b(j), ref.b[j]) << "class " << j;
    real += ref.d[j];
    borrowed += ref.b[j];
    if (ref.d[j] > 0 || ref.b[j] > 0) want_active.push_back(j);
    if (ref.b[j] > 0) want_marked.push_back(j);
    if (ref.d[j] > 0 && ref.b[j] == 0) ++want_borrowable;
  }
  EXPECT_EQ(ledger.real_load(), real);
  EXPECT_EQ(ledger.borrowed_total(), borrowed);
  EXPECT_EQ(ledger.virtual_load(), real + borrowed);
  EXPECT_EQ(active_list(ledger), want_active);
  EXPECT_EQ(marked_list(ledger), want_marked);
  // L4: one marked class per marker, indexed in ascending order.
  ASSERT_EQ(want_marked.size(), static_cast<std::size_t>(borrowed));
  for (std::size_t k = 0; k < want_marked.size(); ++k)
    EXPECT_EQ(ledger.nth_marked(k), want_marked[k]) << "marked index " << k;
  EXPECT_THROW(ledger.nth_marked(want_marked.size()), contract_error);
  EXPECT_EQ(ledger.borrowable(), want_borrowable);
  for (const Ledger::Entry& e : ledger.records()) {
    EXPECT_EQ(e.d, ref.d[e.cls]);
    EXPECT_EQ(e.b, ref.b[e.cls]);
  }
  const Ledger::Entry& end = end_record(ledger);
  EXPECT_EQ(end.cls, Ledger::kEndClass);
  EXPECT_EQ(end.d, 0);
  EXPECT_EQ(end.b, 0);
  EXPECT_EQ(ledger.dense_d(), ref.d);
  EXPECT_EQ(ledger.dense_b(), ref.b);
}

TEST(LedgerProperty, SparseStorageTracksDenseReferenceUnderRandomOps) {
  constexpr std::uint32_t kClasses = 24;
  constexpr std::uint32_t kCap = 6;
  // Drawn classes hit the owner about once in every kClasses ops, so its
  // entry is inserted, dropped, borrowed, repaid and rebuilt often.
  constexpr std::uint32_t kOwner = 11;
  Rng rng(0x1eadbeef);
  Ledger ledger(kClasses, kOwner);
  DenseReference ref(kClasses);
  for (int op = 0; op < 4000; ++op) {
    const auto j = static_cast<std::uint32_t>(rng.below(kClasses));
    switch (rng.below(12)) {
      case 0: {
        const auto count = 1 + static_cast<std::int64_t>(rng.below(3));
        ledger.add_real(j, count);
        ref.d[j] += count;
        break;
      }
      case 1:
        if (ledger.d(j) > 0) {
          const auto count =
              1 + static_cast<std::int64_t>(
                      rng.below(static_cast<std::uint64_t>(ledger.d(j))));
          ledger.remove_real(j, count);
          ref.d[j] -= count;
        }
        break;
      case 2:
        if (ledger.d(j) > 0 && ledger.b(j) == 0 &&
            ledger.borrowed_total() < kCap) {
          // Borrow class j: its index among the borrowable classes.
          std::size_t index = 0;
          for (std::uint32_t c = 0; c < j; ++c)
            if (ref.d[c] > 0 && ref.b[c] == 0) ++index;
          ASSERT_EQ(ledger.borrow_nth(index), j);
          ref.d[j] -= 1;
          ref.b[j] += 1;
        }
        break;
      case 3:
        if (ledger.b(j) > 0) {
          ledger.clear_marker(j);
          ref.b[j] -= 1;
        }
        break;
      case 4:
        if (ledger.b(j) > 0) {
          // Repay class j: its index among the marked classes.
          std::size_t index = 0;
          for (std::uint32_t c = 0; c < j; ++c)
            if (ref.b[c] > 0) ++index;
          ASSERT_EQ(ledger.repay_nth_marked(index), j);
          ref.b[j] -= 1;
          ref.d[j] += 1;
        }
        break;
      case 5: {
        // Absolute d assignment as one add_real or remove_real (count 0
        // included, which leaves the entries as they are).
        const auto v = static_cast<std::int64_t>(rng.below(4));
        const std::int64_t held = ledger.d(j);
        if (v >= held) {
          ledger.add_real(j, v - held);
        } else {
          ledger.remove_real(j, held - v);
        }
        ref.d[j] = v;
        break;
      }
      case 6: {
        // Absolute b assignment: the reference's rows with one marker
        // set or cleared, written back in one rebuild.
        const std::int64_t v =
            ledger.b(j) == 0 && ledger.borrowed_total() < kCap ? 1 : 0;
        ref.b[j] = v;
        rebuild_from_dense(ledger, ref.d, ref.b);
        break;
      }
      case 7: {
        // Full replace with a fresh random state (the restore path).
        DenseReference next(kClasses);
        std::int64_t markers = 0;
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          next.d[c] = static_cast<std::int64_t>(rng.below(3));
          if (markers < kCap && rng.below(4) == 0) {
            next.b[c] = 1;
            ++markers;
          }
        }
        rebuild_from_dense(ledger, next.d, next.b);
        ref = next;
        break;
      }
      case 8: {
        // Write-back over a random ascending class subset, including
        // zero assignments (entry drops) and absent classes (entry
        // inserts); the classes outside the subset keep their counts.
        std::int64_t budget = kCap - ref.borrowed();
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          if (rng.below(3) != 0) continue;
          ref.d[c] = static_cast<std::int64_t>(rng.below(4));
          budget += ref.b[c];  // c's old marker is overwritten
          if (budget > 0 && rng.below(4) == 0) {
            ref.b[c] = 1;
            --budget;
          } else {
            ref.b[c] = 0;
          }
        }
        rebuild_from_dense(ledger, ref.d, ref.b);
        break;
      }
      case 9: {
        // Balance-deal write-back: cls must cover every active class.
        // Build it as the current active list plus random extra classes,
        // with fresh random values — zeros included, so covered entries
        // drop and extra classes may insert.  The values sit in row 1 of
        // a three-row column-major matrix (stride 3).  The old state is
        // irrelevant to the result, so the reference resets wholesale.
        constexpr std::size_t kRows = 3;
        std::vector<std::uint32_t> cls;
        std::vector<std::int64_t> d_vals;
        std::vector<std::int64_t> b_vals;
        const auto active = ledger.records();
        std::size_t ai = 0;
        std::int64_t budget = kCap;  // every old marker is overwritten
        for (std::uint32_t c = 0; c < kClasses; ++c) {
          const bool required = ai < active.size() && active[ai].cls == c;
          if (required) ++ai;
          if (!required && rng.below(3) != 0) continue;
          cls.push_back(c);
          d_vals.insert(d_vals.end(), kRows, -1);
          d_vals[d_vals.size() - 2] = static_cast<std::int64_t>(rng.below(4));
          b_vals.insert(b_vals.end(), kRows, 5);
          b_vals[b_vals.size() - 2] = 0;
          if (budget > 0 && rng.below(4) == 0) {
            b_vals[b_vals.size() - 2] = 1;
            --budget;
          }
        }
        const bool markers = budget < kCap || rng.below(2) == 0;
        const ClassCounts own = ledger.rebuild_dealt(
            cls.data(), cls.size(), d_vals.data() + 1,
            markers ? b_vals.data() + 1 : nullptr, kRows);
        ref = DenseReference(kClasses);
        for (std::size_t i = 0; i < cls.size(); ++i) {
          ref.d[cls[i]] = d_vals[i * kRows + 1];
          ref.b[cls[i]] = markers ? b_vals[i * kRows + 1] : 0;
        }
        EXPECT_EQ(own.d, ref.d[kOwner]);
        EXPECT_EQ(own.b, ref.b[kOwner]);
        break;
      }
      case 10: {
        // Positional borrow: the k-th class with d > 0 and b == 0,
        // counted in ascending class order on the dense reference.
        const std::size_t count = ledger.borrowable();
        if (count == 0 || ledger.borrowed_total() >= kCap) break;
        const auto index = static_cast<std::size_t>(rng.below(count));
        std::size_t k = index;
        std::uint32_t want = kClasses;
        for (std::uint32_t c = 0; c < kClasses && want == kClasses; ++c)
          if (ref.d[c] > 0 && ref.b[c] == 0 && k-- == 0) want = c;
        ASSERT_EQ(ledger.borrow_nth(index), want);
        ref.d[want] -= 1;
        ref.b[want] += 1;
        break;
      }
      case 11: {
        // Positional repay: the k-th marked class in ascending order.
        if (ledger.borrowed_total() == 0) break;
        const auto index = static_cast<std::size_t>(
            rng.below(static_cast<std::uint64_t>(ledger.borrowed_total())));
        std::size_t k = index;
        std::uint32_t want = kClasses;
        for (std::uint32_t c = 0; c < kClasses && want == kClasses; ++c)
          if (ref.b[c] > 0 && k-- == 0) want = c;
        ASSERT_EQ(ledger.repay_nth_marked(index), want);
        ref.b[want] -= 1;
        ref.d[want] += 1;
        break;
      }
    }
    expect_matches_reference(ledger, ref, kCap, kOwner);
  }
}

TEST(LedgerProperty, FirstMarkedClassMatchesMarkedListHead) {
  Ledger ledger(8, 0);
  EXPECT_TRUE(marked_list(ledger).empty());
  ledger.add_real(5, 2);
  ledger.add_real(2, 1);
  ASSERT_EQ(ledger.borrow_nth(1), 5u);
  EXPECT_EQ(ledger.nth_marked(0), 5u);
  ASSERT_EQ(ledger.borrow_nth(0), 2u);
  EXPECT_EQ(ledger.nth_marked(0), 2u);
  EXPECT_EQ(ledger.nth_marked(0), marked_list(ledger).front());
  ledger.clear_marker(2);
  EXPECT_EQ(ledger.nth_marked(0), 5u);
  ledger.clear_marker(5);
  EXPECT_THROW(ledger.nth_marked(0), contract_error);
}

}  // namespace
}  // namespace dlb
