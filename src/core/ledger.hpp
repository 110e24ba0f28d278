// Per-processor packet ledger: the d_{i,j} / b_{i,j} bookkeeping of §4.
//
// Every load packet carries the identity of the processor that generated
// it (its *load class*).  Processor i's ledger records
//   d[j] — real packets of class j currently held by i, and
//   b[j] — packets of class j that i has consumed on credit ("borrowed"),
//          i.e. virtual markers that keep class j's total invariant.
// The reduction of the n-processor model to n independent one-processor
// models (and hence Theorem 4) rests on two ledger invariants that this
// class maintains and can verify:
//   (L1) real load of i  ==  sum_j d[j]        (tracked incrementally)
//   (L2) sum_j b[j] <= C  and  b[j] in {0,1}   (the borrow cap)
//
// Storage is *sparse*: the ledger holds no O(n) arrays.  The source of
// truth is three parallel vectors keyed by the sorted active-class list —
// for i < size_, active_[i] is a class with a nonzero ledger entry,
// d_counts_[i] and b_counts_[i] are its counts.  A ledger therefore
// costs O(A) memory in the number A of active classes, not O(n); with
// every processor holding a handful of classes the whole n-processor
// simulator is O(n·A) bytes instead of the former O(n²) (which at
// n = 65536 would be ~64 GB of dense arrays).  The vectors keep the
// length of the most entries the ledger ever held and only the first
// size_ slots are live, so a balance write-back that briefly needs more
// slots than it keeps never resizes (and zero-fills) them again.
// Structural invariants of the compact form:
//   (S1) the live prefix of active_ is strictly ascending and every
//        listed class satisfies d > 0 || b > 0 — no zero entries;
//   (S2) the three vectors have one length, at least size_, and the
//        live counts are non-negative.
// The derived views keep their PR-1 contracts:
//   (L3) active_classes() is exactly {j : d[j] > 0 || b[j] > 0}, sorted
//        ascending, and
//   (L4) the marked classes {j : b[j] > 0} number exactly
//        borrowed_total(), at most C — derived from L2's b[j] in {0,1}
//        (which check() asserts per class), not stored.
// Ascending order matters: callers draw a uniform index k and take the
// k-th candidate (nth_marked, borrow_nth, repay_nth_marked), and the
// original dense implementation enumerated candidates by scanning
// j = 0..n-1 — walking the compact arrays in the same order keeps the
// RNG-to-class mapping (and therefore the whole simulation)
// bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dlb {

/// The ledger counts of one class.
struct ClassCounts {
  std::int64_t d = 0;
  std::int64_t b = 0;
};

class Ledger {
 public:
  /// Creates an empty ledger over `classes` load classes (= network size).
  /// O(1) memory regardless of `classes`.
  explicit Ledger(std::uint32_t classes);

  std::uint32_t classes() const { return classes_; }

  /// Count lookups by class: O(log A) binary search in the active list;
  /// classes without an entry are zero.
  std::int64_t d(std::uint32_t j) const;
  std::int64_t b(std::uint32_t j) const;

  /// Real load: sum_j d[j] (O(1), maintained incrementally).
  std::int64_t real_load() const { return real_; }
  /// Total borrow markers: sum_j b[j] (O(1)).
  std::int64_t borrowed_total() const { return borrowed_; }
  /// Virtual load: real + borrowed — the quantity the §3/§4 analysis
  /// bounds.
  std::int64_t virtual_load() const { return real_ + borrowed_; }

  /// Classes with d[j] > 0 || b[j] > 0, ascending (L3).  The view is
  /// invalidated by any mutating call.
  std::span<const std::uint32_t> active_classes() const {
    return {active_.data(), size_};
  }

  /// Per-class counts parallel to active_classes(): active_d()[i] is
  /// d[active_classes()[i]], active_b()[i] is b[active_classes()[i]].
  /// Lets bulk readers (the balance gather) walk the compact storage
  /// without per-class binary searches.  Invalidated by any mutation.
  std::span<const std::int64_t> active_d() const {
    return {d_counts_.data(), size_};
  }
  std::span<const std::int64_t> active_b() const {
    return {b_counts_.data(), size_};
  }

  /// Positional access: k counts classes in ascending order, naming the
  /// class a dense j = 0..n-1 scan would.  One O(A) pass; an out-of-range
  /// k throws contract_error and mutates nothing.
  /// The k-th class with b[j] > 0 (k < borrowed_total(), by L4).
  std::uint32_t nth_marked(std::size_t k) const;
  /// How many classes can be borrowed (d[j] > 0 and b[j] == 0).
  std::size_t borrowable() const;
  /// Borrows the k-th such class: one of its real packets is consumed
  /// and becomes a marker, so class j's virtual total is preserved
  /// ([D3]).  Returns the class.
  std::uint32_t borrow_nth(std::size_t k);
  /// Repays the k-th marked class with a newly generated packet (the
  /// appendix's generate path): its marker becomes a real packet.
  /// Returns the class.
  std::uint32_t repay_nth_marked(std::size_t k);

  /// Adds `count` real packets of class j.
  void add_real(std::uint32_t j, std::int64_t count);
  /// Removes `count` real packets of class j (must be available).
  void remove_real(std::uint32_t j, std::int64_t count);

  /// Clears one borrow marker of class j (debt settled).
  void clear_marker(std::uint32_t j);

  /// The ledger's one bulk write: rebuilds it from ascending columns,
  /// assigning d[cls[c]] = d_vals[c * stride] and
  /// b[cls[c]] = b_vals[c * stride] for c in [0, k); b_vals may be null
  /// (every b is zero).  Two callers: the balance deal writes back one
  /// participant row of its dealt matrix (stride = participants), and
  /// checkpoint restore installs a processor's saved entries into the
  /// fresh ledger (stride 1).  `cls` must be strictly ascending and
  /// cover every currently active class — the deal's union merge
  /// consumes every participant's whole active list, so it does by
  /// construction; only the necessary condition k >= active count is
  /// checked here.  The post state depends on the given values alone,
  /// so the compact vectors are rebuilt in place by one pass, their only
  /// write (they grow only when k exceeds every earlier length).  The
  /// per-cell checks (d >= 0, b in {0, 1}, classes ascending) fold into
  /// one accumulator tested after the pass, with the class range checked
  /// on the last class; a call they reject leaves the ledger unspecified
  /// (the shape and coverage checks run before any write).
  /// Returns the counts of class `own` (the deal participant's own
  /// class), so callers need no lookups after the deal.  O(k).
  ClassCounts rebuild_dealt(const std::uint32_t* cls, std::size_t k,
                            const std::int64_t* d_vals,
                            const std::int64_t* b_vals, std::size_t stride,
                            std::uint32_t own);

  /// Capacity floor: pre-sizes the compact storage for `k` active-class
  /// entries (clamped to classes()), so later writes up to that
  /// occupancy never reallocate — the zero-allocation steady-state knob
  /// (BalancerConfig::reserve_classes).  Never shrinks.
  void reserve_active(std::uint32_t k);

  /// Verifies L1-L4 (b[j] <= 1 per class) and the compact-storage
  /// invariants S1/S2; throws contract_error on failure.  O(A) —
  /// independent of classes().
  void check(std::uint32_t borrow_cap) const;

  /// Dense materializations for tests and tools; O(n) each, allocates.
  std::vector<std::int64_t> dense_d() const;
  std::vector<std::int64_t> dense_b() const;

  /// Heap bytes held by this ledger's sparse storage (capacities of the
  /// three parallel entry vectors) — the bytes-per-processor metric
  /// BENCH_core.json records.
  std::size_t memory_bytes() const;

 private:
  // lower_bound slot of class j in active_.
  std::size_t lower_slot(std::uint32_t j) const;
  // Slot of class j, or size_ when j has no entry.  The const
  // overload is write-free (it consults hint_ but never updates it), so
  // concurrent const lookups on one shared ledger are race-free; the
  // non-const overload additionally memoizes the hit in hint_.
  std::size_t slot(std::uint32_t j) const;
  std::size_t slot(std::uint32_t j);
  // Slot of the k-th marked / borrowable entry; contract_error if none.
  std::size_t nth_marked_slot(std::size_t k) const;
  std::size_t nth_borrowable_slot(std::size_t k) const;
  // Lengthens the three vectors to at least `slots` (capacity doubling,
  // as push_back would); never shrinks them.
  void ensure_slots(std::size_t slots);
  void insert_entry(std::size_t pos, std::uint32_t j, std::int64_t d_val,
                    std::int64_t b_val);
  void erase_entry(std::size_t pos);
  // Drops the entry at `pos` if both counts reached zero (S1).
  void drop_if_zero(std::size_t pos);

  std::uint32_t classes_;
  // Live entries: the compact vectors below are live in [0, size_) and
  // kept at their high-water length.  At most classes_, so 32 bits; it
  // sits in classes_'s padding and costs the ledger no bytes.
  std::uint32_t size_ = 0;
  std::int64_t real_ = 0;
  std::int64_t borrowed_ = 0;
  // Compact storage: parallel vectors keyed by the ascending active list.
  std::vector<std::uint32_t> active_;
  std::vector<std::int64_t> d_counts_;
  std::vector<std::int64_t> b_counts_;
  // Memo of the last mutating slot() hit.  The event loop queries the
  // same class many times in a row (generate/consume/trigger checks on
  // the own class), so this turns most lookups into one comparison.  Safe
  // against staleness: the cached slot is only used after re-verifying
  // active_[hint_] == j.  Deliberately NOT mutable: const accessors read
  // the hint but never write it, so the const API carries no hidden
  // writes (shared const reads across threads are race-free).
  std::size_t hint_ = 0;
};

}  // namespace dlb
