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
// truth is one ascending array of 16-byte {class, b, d} records in one
// allocation — for i < size_, records_[i] names a class with a nonzero
// ledger entry and holds its counts — closed by a sentinel record (class
// kEndClass, counts 0) at records_[size_].  A ledger therefore costs
// O(A) memory in the number A of active classes, not O(n); with every
// processor holding a handful of classes the whole n-processor simulator
// is O(n·A) bytes instead of the former O(n²) (which at n = 65536 would
// be ~64 GB of dense arrays).  The array keeps the most records the
// ledger ever needed, so a balance write-back that briefly needs more
// slots than it keeps never reallocates again.  A ledger that never held
// an entry points at one shared static sentinel and owns no heap memory.
// The sentinel lets readers walk a ledger without its length: the deal's
// merge stops each row at the class no real class reaches, and a lookup
// that finds nothing reads the sentinel's zero counts.
// Structural invariants of the compact form:
//   (S1) the live prefix is strictly ascending by class and every
//        record satisfies d > 0 || b > 0 — no zero entries;
//   (S2) the allocation holds at least size_ + 1 records, the live
//        counts are non-negative, and records_[size_] is the sentinel.
// The derived views keep their PR-1 contracts:
//   (L3) active_classes() is exactly {j : d[j] > 0 || b[j] > 0}, sorted
//        ascending, and
//   (L4) the marked classes {j : b[j] > 0} number exactly
//        borrowed_total(), at most C — derived from L2's b[j] in {0,1}
//        (which check() asserts per class), not stored.
// Ascending order matters: callers draw a uniform index k and take the
// k-th candidate (nth_marked, borrow_nth, repay_nth_marked), and the
// original dense implementation enumerated candidates by scanning
// j = 0..n-1 — walking the compact array in the same order keeps the
// RNG-to-class mapping (and therefore the whole simulation)
// bit-identical.
//
// Every event of the §4 protocol works on the processor's own class d_ii
// (an own-class consume, the factor-f trigger, a remote exchange's
// generator), so the ledger knows its owner's class and keeps that
// class's slot current through every insert, erase and rebuild: an
// owner lookup is one load, any other class a binary search.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
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
  /// One ledger record: class `cls`'s counts.  b is 0 or 1 (L2).
  struct Entry {
    std::uint32_t cls;
    std::int32_t b;
    std::int64_t d;
  };
  /// The sentinel record's class, above every load class (classes are
  /// < n <= 2^32 - 1).
  static constexpr std::uint32_t kEndClass = 0xffffffffu;

  /// Creates an empty ledger over `classes` load classes (= network size)
  /// for the processor whose own class is `owner` (< classes).  Allocates
  /// nothing: the empty ledger reads the shared sentinel.
  Ledger(std::uint32_t classes, std::uint32_t owner);
  // Move-only: the ledger owns its record array, and nothing copies one.
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;
  Ledger(Ledger&& other) noexcept;
  Ledger& operator=(Ledger&& other) noexcept;
  ~Ledger();

  std::uint32_t classes() const { return classes_; }

  /// Count lookups by class: O(1) for the owner's class, otherwise an
  /// O(log A) binary search in the active list; classes without an entry
  /// read the sentinel's zeros.
  std::int64_t d(std::uint32_t j) const { return records_[slot(j)].d; }
  std::int64_t b(std::uint32_t j) const { return records_[slot(j)].b; }

  /// Real load: sum_j d[j] (O(1), maintained incrementally).
  std::int64_t real_load() const { return real_; }
  /// Total borrow markers: sum_j b[j] (O(1)).
  std::int64_t borrowed_total() const { return borrowed_; }
  /// Virtual load: real + borrowed — the quantity the §3/§4 analysis
  /// bounds.
  std::int64_t virtual_load() const { return real_ + borrowed_; }

  /// The live records, ascending by class (L3).  The record just past
  /// the span is the sentinel, so bulk readers (the balance merge) may
  /// walk one past the end.  Invalidated by any mutating call.
  std::span<const Entry> records() const { return {records_, size_}; }

  /// Classes with d[j] > 0 || b[j] > 0, ascending (L3): records()
  /// projected to their class.  Invalidated by any mutating call.
  auto active_classes() const {
    return std::views::transform(records(), &Entry::cls);
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

  /// Adds `count` real packets of class j.  A store when j is the owner's
  /// class and already has an entry.
  void add_real(std::uint32_t j, std::int64_t count) {
    if (j == owner_ && own_ < size_ && count >= 0) {
      records_[own_].d += count;
      real_ += count;
      return;
    }
    add_entry_real(j, count);
  }
  /// Removes `count` real packets of class j (must be available).  A
  /// store when j is the owner's class and its entry keeps some of them
  /// (an absent owner reads the sentinel's d = 0).
  void remove_real(std::uint32_t j, std::int64_t count) {
    if (j == owner_ && count >= 0 && count < records_[own_].d) {
      records_[own_].d -= count;
      real_ -= count;
      return;
    }
    remove_entry_real(j, count);
  }

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
  /// so the records are rebuilt in place by one pass, their only write
  /// (the array grows only when k exceeds every earlier length and the
  /// row holds an entry: a row that ends empty never allocates).  The
  /// per-cell checks (d >= 0, b in {0, 1}, classes ascending) fold into
  /// one accumulator tested after the pass, with the class range checked
  /// on the last class; a call they reject leaves the ledger unspecified
  /// (the shape and coverage checks run before any write).  The pass
  /// also notes where the owner's class lands.  Returns the owner's
  /// counts, so callers need no lookups after the deal.  O(k).
  ClassCounts rebuild_dealt(const std::uint32_t* cls, std::size_t k,
                            const std::int64_t* d_vals,
                            const std::int64_t* b_vals, std::size_t stride);

  /// Capacity floor: pre-sizes the records for `k` active-class entries
  /// (clamped to classes()) plus the sentinel, so later writes up to
  /// that occupancy never reallocate — the zero-allocation steady-state
  /// knob (BalancerConfig::reserve_classes).  Never shrinks.
  void reserve_active(std::uint32_t k);

  /// Verifies L1-L4 (b[j] <= 1 per class), the compact-storage
  /// invariants S1/S2 (the sentinel included) and the owner's slot;
  /// throws contract_error on failure.  O(A) — independent of
  /// classes().
  void check(std::uint32_t borrow_cap) const;

  /// Dense materializations for tests and tools; O(n) each, allocates.
  std::vector<std::int64_t> dense_d() const;
  std::vector<std::int64_t> dense_b() const;

  /// Heap bytes held by this ledger's sparse storage (its record
  /// capacity, the sentinel's record included; 0 while it has never held
  /// an entry) — the bytes-per-processor metric BENCH_core.json records.
  std::size_t memory_bytes() const { return capacity_ * sizeof(Entry); }

 private:
  // lower_bound slot of class j among the live records.
  std::size_t lower_slot(std::uint32_t j) const;
  // Slot of class j, or size_ (the sentinel) when j has no entry: the
  // owner's slot is kept, any other class is searched for.  Write-free,
  // so concurrent const lookups on one shared ledger are race-free.
  std::size_t slot(std::uint32_t j) const {
    return j == owner_ ? own_ : find_slot(j);
  }
  std::size_t find_slot(std::uint32_t j) const;
  // The general add_real/remove_real: range checks, lookup, and the
  // entry insert or drop.
  void add_entry_real(std::uint32_t j, std::int64_t count);
  void remove_entry_real(std::uint32_t j, std::int64_t count);
  // Slot of the k-th marked / borrowable entry; contract_error if none.
  std::size_t nth_marked_slot(std::size_t k) const;
  std::size_t nth_borrowable_slot(std::size_t k) const;
  // Grows the allocation to at least `records` records (live prefix and
  // sentinel carried over; the entry capacity at least doubles, as
  // push_back's would); never shrinks it.
  void ensure_records(std::size_t records);
  void insert_entry(std::size_t pos, std::uint32_t j, std::int64_t d_val,
                    std::int64_t b_val);
  void erase_entry(std::size_t pos);
  // Drops the entry at `pos` if both counts reached zero (S1).
  void drop_if_zero(std::size_t pos);

  // The shared static sentinel until the first entry, then the owned
  // allocation of capacity_ records.
  Entry* records_;
  std::size_t capacity_ = 0;
  std::uint32_t classes_;
  std::uint32_t owner_;
  // Live records: [0, size_); records_[size_] is the sentinel.  At most
  // classes_, so 32 bits.
  std::uint32_t size_ = 0;
  // The owner's slot, or size_ while its class has no entry.
  std::uint32_t own_ = 0;
  std::int64_t real_ = 0;
  std::int64_t borrowed_ = 0;
};

}  // namespace dlb
