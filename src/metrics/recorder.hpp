// Per-step observers for the load figures.
//
// The simulators report per-step loads and packet migrations through a
// Recorder, so each of Figures 7–10 is an ordinary observer: Figures 7/8
// need the per-step average plus the most extreme per-processor loads
// ever seen across runs; Figures 9/10 need per-processor statistics at
// snapshot times.  Event counts (Table 1's borrow events, the §6
// balancing activity) are not a recorder's job: System publishes them
// as system.* counters in the metrics registry (obs/metrics.hpp).
// Keeping measurement out of the algorithm keeps the core honest — the
// balancer cannot special-case "when observed".
#pragma once

#include <cstdint>
#include <vector>

#include "support/stats.hpp"

namespace dlb {

/// Observer interface; all hooks default to no-ops.
class Recorder {
 public:
  virtual ~Recorder() = default;

  /// Called once per global step with the real load of every processor.
  /// `loads` may reference a buffer the caller reuses across steps:
  /// observe or copy during the call, never retain the reference.
  virtual void on_loads(std::uint32_t t,
                        const std::vector<std::int64_t>& loads) {
    (void)t;
    (void)loads;
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
};

/// Figures 7/8: per-step statistics over (processor × run) observations.
class LoadSeriesRecorder final : public Recorder {
 public:
  explicit LoadSeriesRecorder(std::uint32_t steps);

  void on_loads(std::uint32_t t,
                const std::vector<std::int64_t>& loads) override;

  const SeriesAggregator& series() const { return series_; }

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

 private:
  std::vector<std::uint32_t> times_;
  std::uint32_t processors_;
  // times_.size() x processors_ moment cells
  std::vector<RunningMoments> cells_;
};

}  // namespace dlb
