#include "metrics/obs_bridge.hpp"

namespace dlb {

MetricsRecorder::MetricsRecorder(obs::MetricsRegistry& registry)
    : balance_ops_(registry.counter("recorder.balance_ops")),
      packets_moved_(registry.counter("recorder.packets_moved")),
      migrations_(registry.counter("recorder.migrations")),
      borrow_total_(registry.counter("recorder.borrow.total")),
      borrow_remote_(registry.counter("recorder.borrow.remote")),
      borrow_fail_(registry.counter("recorder.borrow.fail")),
      decrease_sim_(registry.counter("recorder.borrow.decrease_sim")) {}

void MetricsRecorder::on_balance_op(std::uint32_t initiator,
                                    std::size_t partners,
                                    std::uint64_t packets_moved) {
  (void)initiator;
  (void)partners;
  balance_ops_.add(1);
  packets_moved_.add(packets_moved);
}

void MetricsRecorder::on_migration(std::uint32_t from, std::uint32_t to,
                                   std::uint64_t count) {
  (void)from;
  (void)to;
  migrations_.add(count);
}

void MetricsRecorder::on_borrow_event(BorrowEvent event) {
  switch (event) {
    case BorrowEvent::TotalBorrow:
      borrow_total_.add(1);
      break;
    case BorrowEvent::RemoteBorrow:
      borrow_remote_.add(1);
      break;
    case BorrowEvent::BorrowFail:
      borrow_fail_.add(1);
      break;
    case BorrowEvent::DecreaseSim:
      decrease_sim_.add(1);
      break;
  }
}

}  // namespace dlb
