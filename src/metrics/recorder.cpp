#include "metrics/recorder.hpp"

#include "support/check.hpp"

namespace dlb {

LoadSeriesRecorder::LoadSeriesRecorder(std::uint32_t steps)
    : series_(steps) {}

void LoadSeriesRecorder::on_loads(std::uint32_t t,
                                  const std::vector<std::int64_t>& loads) {
  if (t >= series_.steps()) return;
  for (std::int64_t load : loads)
    series_.add(t, static_cast<double>(load));
}

SnapshotRecorder::SnapshotRecorder(std::uint32_t processors,
                                   std::vector<std::uint32_t> snapshot_times)
    : times_(std::move(snapshot_times)),
      processors_(processors),
      cells_(times_.size() * processors) {
  DLB_REQUIRE(processors >= 1, "snapshot recorder needs processors");
  DLB_REQUIRE(!times_.empty(), "snapshot recorder needs snapshot times");
}

void SnapshotRecorder::on_loads(std::uint32_t t,
                                const std::vector<std::int64_t>& loads) {
  DLB_REQUIRE(loads.size() == processors_, "load vector size mismatch");
  for (std::size_t s = 0; s < times_.size(); ++s) {
    if (times_[s] != t) continue;
    for (std::uint32_t p = 0; p < processors_; ++p) {
      cells_[s * processors_ + p].add(static_cast<double>(loads[p]));
    }
  }
}

const RunningMoments& SnapshotRecorder::at(std::size_t snapshot,
                                           std::uint32_t processor) const {
  DLB_REQUIRE(snapshot < times_.size(), "snapshot index out of range");
  DLB_REQUIRE(processor < processors_, "processor id out of range");
  return cells_[snapshot * processors_ + processor];
}

}  // namespace dlb
