// Measurement hooks and aggregators.
//
// The simulators are instrumented through a Recorder interface so every
// figure/table of the paper is an ordinary observer: Figures 7/8 need the
// per-step average plus the most extreme per-processor loads ever seen
// across runs; Figures 9/10 need per-processor statistics at snapshot
// times; Table 1 counts borrow-protocol events; the §6 benches read the
// cost ledger.  Keeping measurement out of the algorithm keeps the core
// honest — the balancer cannot special-case "when observed".
#pragma once

#include <cstdint>
#include <vector>

#include "support/stats.hpp"

namespace dlb {

/// Borrow-protocol events (Table 1 of the paper).
enum class BorrowEvent {
  TotalBorrow,   // a packet was borrowed from some load class
  RemoteBorrow,  // borrowed markers settled against real packets of the
                 // generating processor (the "remote borrow" exchange)
  BorrowFail,    // the generating processor itself had no packets; the
                 // §4 resolution algorithm ran
  DecreaseSim,   // a simulated workload decrease was initiated
};

/// Table 1 row: event counts, reported as per-run averages.
struct BorrowCounters {
  std::uint64_t total_borrow = 0;
  std::uint64_t remote_borrow = 0;
  std::uint64_t borrow_fail = 0;
  std::uint64_t decrease_sim = 0;

  void bump(BorrowEvent event);
  BorrowCounters& operator+=(const BorrowCounters& other);
};

/// Observer interface; all hooks default to no-ops.
class Recorder {
 public:
  virtual ~Recorder() = default;

  /// A new independent run (with a fresh seed) begins.
  virtual void begin_run(std::uint32_t run) { (void)run; }
  virtual void end_run() {}

  /// Called once per global step with the real load of every processor.
  /// `loads` may reference a buffer the caller reuses across steps:
  /// observe or copy during the call, never retain the reference.
  virtual void on_loads(std::uint32_t t,
                        const std::vector<std::int64_t>& loads) {
    (void)t;
    (void)loads;
  }

  /// A balancing operation completed.
  virtual void on_balance_op(std::uint32_t initiator, std::size_t partners,
                             std::uint64_t packets_moved) {
    (void)initiator;
    (void)partners;
    (void)packets_moved;
  }

  /// `count` packets migrated from processor `from` to processor `to`
  /// (fired for every flow inside a balancing operation and for remote
  /// borrow exchanges).  Payload-carrying wrappers (core/item_system.hpp)
  /// use this to move the actual objects.
  virtual void on_migration(std::uint32_t from, std::uint32_t to,
                            std::uint64_t count) {
    (void)from;
    (void)to;
    (void)count;
  }

  virtual void on_borrow_event(BorrowEvent event) { (void)event; }
};

/// Fans hooks out to several recorders (non-owning).
class MultiRecorder final : public Recorder {
 public:
  void attach(Recorder* recorder);

  void begin_run(std::uint32_t run) override;
  void end_run() override;
  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override;
  void on_balance_op(std::uint32_t initiator, std::size_t partners,
                     std::uint64_t packets_moved) override;
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override;
  void on_borrow_event(BorrowEvent event) override;

 private:
  std::vector<Recorder*> recorders_;
};

/// Figures 7/8: per-step statistics over (processor × run) observations.
class LoadSeriesRecorder final : public Recorder {
 public:
  explicit LoadSeriesRecorder(std::uint32_t steps);

  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override;

  const SeriesAggregator& series() const { return series_; }

  /// Merges another recorder over the same horizon (parallel runner).
  void merge(const LoadSeriesRecorder& other) {
    series_.merge(other.series_);
  }

 private:
  SeriesAggregator series_;
};

/// Figures 9/10: per-processor statistics at fixed snapshot times.
class SnapshotRecorder final : public Recorder {
 public:
  SnapshotRecorder(std::uint32_t processors,
                   std::vector<std::uint32_t> snapshot_times);

  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override;

  const std::vector<std::uint32_t>& snapshot_times() const { return times_; }
  /// Statistics of processor p at snapshot index s (across runs).
  const RunningMoments& at(std::size_t snapshot, std::uint32_t processor) const;

  /// Merges another recorder with identical shape (parallel runner).
  void merge(const SnapshotRecorder& other);

 private:
  std::vector<std::uint32_t> times_;
  std::uint32_t processors_;
  // times_.size() x processors_ moment cells
  std::vector<RunningMoments> cells_;
};

/// Table 1: accumulates borrow counters, reports per-run averages.
class BorrowCounterRecorder final : public Recorder {
 public:
  void begin_run(std::uint32_t run) override;
  void end_run() override;
  void on_borrow_event(BorrowEvent event) override;

  std::uint32_t runs() const { return runs_; }
  const BorrowCounters& totals() const { return totals_; }
  double avg_total_borrow() const;
  double avg_remote_borrow() const;
  double avg_borrow_fail() const;
  double avg_decrease_sim() const;

  /// Merges completed runs of another recorder (parallel runner).
  void merge(const BorrowCounterRecorder& other);

 private:
  std::uint32_t runs_ = 0;
  BorrowCounters current_;
  BorrowCounters totals_;
  bool in_run_ = false;
};

/// Per-step balancing-activity counts (for the §6 cost benches).
class ActivityRecorder final : public Recorder {
 public:
  void begin_run(std::uint32_t run) override;
  void on_balance_op(std::uint32_t initiator, std::size_t partners,
                     std::uint64_t packets_moved) override;
  void end_run() override;

  double avg_operations_per_run() const;
  double avg_packets_moved_per_run() const;

  /// Merges completed runs of another recorder (parallel runner).
  void merge(const ActivityRecorder& other);
  std::uint64_t total_operations() const { return total_ops_; }
  std::uint64_t total_packets_moved() const { return total_packets_; }

 private:
  std::uint32_t runs_ = 0;
  std::uint64_t total_ops_ = 0;
  std::uint64_t total_packets_ = 0;
};

}  // namespace dlb
