#include "metrics/recorder.hpp"

#include "support/check.hpp"

namespace dlb {

void BorrowCounters::bump(BorrowEvent event) {
  switch (event) {
    case BorrowEvent::TotalBorrow: ++total_borrow; break;
    case BorrowEvent::RemoteBorrow: ++remote_borrow; break;
    case BorrowEvent::BorrowFail: ++borrow_fail; break;
    case BorrowEvent::DecreaseSim: ++decrease_sim; break;
  }
}

BorrowCounters& BorrowCounters::operator+=(const BorrowCounters& other) {
  total_borrow += other.total_borrow;
  remote_borrow += other.remote_borrow;
  borrow_fail += other.borrow_fail;
  decrease_sim += other.decrease_sim;
  return *this;
}

void MultiRecorder::attach(Recorder* recorder) {
  DLB_REQUIRE(recorder != nullptr, "cannot attach a null recorder");
  recorders_.push_back(recorder);
}

void MultiRecorder::begin_run(std::uint32_t run) {
  for (Recorder* r : recorders_) r->begin_run(run);
}

void MultiRecorder::end_run() {
  for (Recorder* r : recorders_) r->end_run();
}

void MultiRecorder::on_loads(std::uint32_t t,
                             const std::vector<std::int64_t>& loads) {
  for (Recorder* r : recorders_) r->on_loads(t, loads);
}

void MultiRecorder::on_balance_op(std::uint32_t initiator,
                                  std::size_t partners,
                                  std::uint64_t packets_moved) {
  for (Recorder* r : recorders_) r->on_balance_op(initiator, partners,
                                                  packets_moved);
}

void MultiRecorder::on_migration(std::uint32_t from, std::uint32_t to,
                                 std::uint64_t count) {
  for (Recorder* r : recorders_) r->on_migration(from, to, count);
}

void MultiRecorder::on_borrow_event(BorrowEvent event) {
  for (Recorder* r : recorders_) r->on_borrow_event(event);
}

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

void SnapshotRecorder::merge(const SnapshotRecorder& other) {
  DLB_REQUIRE(times_ == other.times_ && processors_ == other.processors_,
              "cannot merge snapshot recorders with different shapes");
  for (std::size_t i = 0; i < cells_.size(); ++i)
    cells_[i].merge(other.cells_[i]);
}

const RunningMoments& SnapshotRecorder::at(std::size_t snapshot,
                                           std::uint32_t processor) const {
  DLB_REQUIRE(snapshot < times_.size(), "snapshot index out of range");
  DLB_REQUIRE(processor < processors_, "processor id out of range");
  return cells_[snapshot * processors_ + processor];
}

void BorrowCounterRecorder::begin_run(std::uint32_t run) {
  (void)run;
  DLB_REQUIRE(!in_run_, "begin_run called twice without end_run");
  current_ = BorrowCounters{};
  in_run_ = true;
}

void BorrowCounterRecorder::end_run() {
  DLB_REQUIRE(in_run_, "end_run without begin_run");
  totals_ += current_;
  ++runs_;
  in_run_ = false;
}

void BorrowCounterRecorder::on_borrow_event(BorrowEvent event) {
  current_.bump(event);
}

namespace {
double per_run(std::uint64_t total, std::uint32_t runs) {
  return runs == 0 ? 0.0
                   : static_cast<double>(total) / static_cast<double>(runs);
}
}  // namespace

double BorrowCounterRecorder::avg_total_borrow() const {
  return per_run(totals_.total_borrow, runs_);
}
double BorrowCounterRecorder::avg_remote_borrow() const {
  return per_run(totals_.remote_borrow, runs_);
}
double BorrowCounterRecorder::avg_borrow_fail() const {
  return per_run(totals_.borrow_fail, runs_);
}
double BorrowCounterRecorder::avg_decrease_sim() const {
  return per_run(totals_.decrease_sim, runs_);
}

void BorrowCounterRecorder::merge(const BorrowCounterRecorder& other) {
  DLB_REQUIRE(!in_run_ && !other.in_run_,
              "cannot merge recorders mid-run");
  totals_ += other.totals_;
  runs_ += other.runs_;
}

void ActivityRecorder::merge(const ActivityRecorder& other) {
  runs_ += other.runs_;
  total_ops_ += other.total_ops_;
  total_packets_ += other.total_packets_;
}

void ActivityRecorder::begin_run(std::uint32_t run) { (void)run; }

void ActivityRecorder::on_balance_op(std::uint32_t initiator,
                                     std::size_t partners,
                                     std::uint64_t packets_moved) {
  (void)initiator;
  (void)partners;
  ++total_ops_;
  total_packets_ += packets_moved;
}

void ActivityRecorder::end_run() { ++runs_; }

double ActivityRecorder::avg_operations_per_run() const {
  return runs_ == 0 ? 0.0
                    : static_cast<double>(total_ops_) /
                          static_cast<double>(runs_);
}

double ActivityRecorder::avg_packets_moved_per_run() const {
  return runs_ == 0 ? 0.0
                    : static_cast<double>(total_packets_) /
                          static_cast<double>(runs_);
}

}  // namespace dlb
