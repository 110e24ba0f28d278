// Bridges the figure-oriented Recorder hooks into the operational
// metrics registry (src/obs).
//
// Anything that already speaks Recorder — the sequential System, the
// figure benches — can fan into a MetricsRecorder (e.g. via
// MultiRecorder) and its events land as named counters in a
// MetricsRegistry next to the phase-profiling histograms.
#pragma once

#include "metrics/recorder.hpp"
#include "obs/metrics.hpp"

namespace dlb {

/// Recorder that forwards event hooks into registry counters:
///   recorder.balance_ops / .packets_moved / .migrations
///   recorder.borrow.{total,remote,fail,decrease_sim}
/// Counter references are resolved once at construction; the hooks are
/// then lock-free.
class MetricsRecorder final : public Recorder {
 public:
  explicit MetricsRecorder(obs::MetricsRegistry& registry);

  void on_balance_op(std::uint32_t initiator, std::size_t partners,
                     std::uint64_t packets_moved) override;
  void on_migration(std::uint32_t from, std::uint32_t to,
                    std::uint64_t count) override;
  void on_borrow_event(BorrowEvent event) override;

 private:
  obs::Counter& balance_ops_;
  obs::Counter& packets_moved_;
  obs::Counter& migrations_;
  obs::Counter& borrow_total_;
  obs::Counter& borrow_remote_;
  obs::Counter& borrow_fail_;
  obs::Counter& decrease_sim_;
};

}  // namespace dlb
