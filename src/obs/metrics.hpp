// Metrics registry: named counters, gauges and log2-bucketed histograms.
//
// The registry is the one place events are counted: how many balance
// ops ran and packets moved, Table 1's borrow events (system.borrow.*,
// read by bench/table1_borrow), how long each run_async epoch waited
// for quiescence, how many messages a link dropped.  The Recorder
// interface (metrics/recorder.hpp) only observes per-step loads and
// migrations for the figures.  Instruments are created once by name and
// then updated lock-free (relaxed atomics), so a hot path pays one
// pointer-null check when observability is detached and one relaxed
// atomic RMW when attached.  A snapshot() walks the registry under its
// mutex and yields plain values, exportable as JSON or CSV.
//
// Histograms bucket log-linearly (HdrHistogram-style): 64 power-of-two
// major buckets, each split into kSubBuckets linear sub-buckets, and
// percentile queries interpolate linearly inside the sub-bucket holding
// the requested order statistic.  The quantile therefore lands in the
// same 1/kSubBuckets slice of the power-of-two bucket as the exact
// order statistic, bounding the relative error by 1/kSubBuckets
// (6.25%) — tight enough that a p999 latency column is meaningful
// instead of collapsing onto power-of-two edges (tested against a
// sorted-vector oracle).
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dlb::obs {

/// Monotone event count.  Thread-safe (relaxed; totals are read after
/// the run, not used for synchronization).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (e.g. active processors this
/// step).  Thread-safe.
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-linear histogram of non-negative values (typically nanoseconds):
/// 64 power-of-two major buckets, each split into kSubBuckets linear
/// sub-buckets.  record() is wait-free; percentile() interpolates
/// within the sub-bucket holding the requested order statistic, so the
/// relative error is bounded by 1/kSubBuckets instead of a full binary
/// order of magnitude.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  static constexpr std::size_t kSubBuckets = 16;
  static constexpr std::size_t kCells = kBuckets * kSubBuckets;

  /// Major bucket index for a value: 0 holds {0, 1}, bucket i >= 1
  /// holds [2^i, 2^(i+1)).
  static std::size_t bucket_of(std::uint64_t value) {
    return value <= 1 ? 0
                      : static_cast<std::size_t>(63 - __builtin_clzll(value));
  }
  /// Inclusive lower edge of bucket `i`.
  static std::uint64_t bucket_lo(std::size_t i) {
    return i == 0 ? 0 : (std::uint64_t{1} << i);
  }
  /// Fine cell index: major bucket b, then the value's position within
  /// the bucket span scaled to kSubBuckets.  Buckets narrower than
  /// kSubBuckets (b <= 4) leave some sub-cells unused; integer values
  /// then map injectively, making small values exact.
  static std::size_t cell_of(std::uint64_t value) {
    const std::size_t b = bucket_of(value);
    const std::uint64_t lo = bucket_lo(b);
    const std::uint64_t span = b == 0 ? 2 : lo;  // bucket width
    // Divide-before-multiply when the span allows it: (value-lo) *
    // kSubBuckets overflows 64 bits in the top buckets.  2^b is
    // divisible by kSubBuckets for b >= 4, so the division is exact.
    const std::uint64_t sub = span >= kSubBuckets
                                  ? (value - lo) / (span / kSubBuckets)
                                  : (value - lo) * kSubBuckets / span;
    return b * kSubBuckets + static_cast<std::size_t>(sub);
  }
  /// Inclusive lower edge of fine cell `c`.
  static double cell_lo(std::size_t c) {
    const std::size_t b = c / kSubBuckets;
    const std::size_t sub = c % kSubBuckets;
    const double lo = static_cast<double>(bucket_lo(b));
    const double span = b == 0 ? 2.0 : lo;
    return lo + span * static_cast<double>(sub) /
                    static_cast<double>(kSubBuckets);
  }
  /// Exclusive upper edge of fine cell `c`.
  static double cell_hi(std::size_t c) {
    return c + 1 >= kCells ? 18446744073709551616.0  // 2^64
                           : cell_lo(c + 1);
  }

  void record(std::uint64_t value);

  /// Transportable copy of the histogram: summary scalars plus the
  /// sparse non-zero fine cells.  min/max are meaningful only when
  /// count > 0.
  struct State {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::pair<std::size_t, std::uint64_t>> cells;
  };
  State state() const;

  /// Folds another histogram's recordings into this one cell-wise, so
  /// the merged percentiles equal percentiles of the concatenated
  /// sample sets up to the usual sub-bucket error.  Thread-safe like
  /// record().
  void merge(const State& other);
  void merge(const Histogram& other) { merge(other.state()); }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded value (0 when empty).
  std::uint64_t min() const;
  std::uint64_t max() const;
  double mean() const;

  /// Value at quantile q in [0, 1]: the exact order statistic's fine
  /// cell, linearly interpolated.  Returns 0 when empty.
  double percentile(double q) const;

  /// Per-major-bucket counts (index by bucket_of), aggregated over the
  /// sub-buckets.
  std::array<std::uint64_t, kBuckets> buckets() const;
  /// Per-fine-cell counts (index by cell_of).
  std::array<std::uint64_t, kCells> cells() const;

  /// Forgets everything recorded.  Not atomic with respect to
  /// concurrent record() calls — callers reset between runs, not
  /// mid-measurement.
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kCells> cells_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// One exported instrument (see MetricsRegistry::snapshot).
struct MetricValue {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  Kind kind = Kind::Counter;
  // Counter / gauge value.
  std::int64_t value = 0;
  // Histogram summary (valid when kind == Histogram).
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// A point-in-time copy of every instrument, ordered by name.
struct MetricsSnapshot {
  std::vector<MetricValue> values;

  const MetricValue* find(const std::string& name) const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, mean, p50, p90, p99, p999}}}
  void write_json(std::ostream& os) const;
  /// name,kind,value,count,sum,min,max,mean,p50,p90,p99,p999 rows.
  void write_csv(std::ostream& os) const;
};

/// Owns the instruments.  Creation is mutex-guarded and returns stable
/// references; callers cache the reference and update it lock-free.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// Line-oriented machine dump of every instrument — the unit of
  /// cross-process metrics transport (each forked rank writes one next
  /// to its journal; the parent folds them back with merge_state):
  ///
  ///   dlb-metrics 1
  ///   c <name> <value>
  ///   g <name> <value>
  ///   h <name> <count> <sum> <min> <max> <ncells> (<cell> <count>)*
  ///
  /// Instrument names must be whitespace-free (enforced).
  void write_state(std::ostream& os) const;

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Cell {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Cell& cell(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Cell> cells_;
};

/// Parses a write_state() dump and folds it into `into`, prepending
/// `prefix` to every instrument name: counters and gauges add,
/// histograms merge cell-wise.  A name already registered in `into`
/// under a different kind trips the registry's kind contract; a
/// malformed dump (bad header or record) throws.
void merge_state(std::istream& is, MetricsRegistry& into,
                 const std::string& prefix = "");

/// Escapes `s` for embedding in a JSON string literal (shared by the
/// metrics/trace exporters and the bench JSON-row emitter).
std::string json_escape(const std::string& s);

}  // namespace dlb::obs
