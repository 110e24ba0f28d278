// Structured trace buffer with Chrome trace-event export.
//
// A fixed-capacity buffer of timestamped spans (and zero-duration
// instants) with thread/shard attribution.  Cost model:
//   - detached (no TraceBuffer wired in): one pointer-null check;
//   - attached but disabled: one relaxed atomic load;
//   - enabled: two steady_clock reads per span plus one wait-free slot
//     claim (fetch_add) and a plain write into a pre-allocated slot.
// Slots are claimed by an atomic ticket; when the buffer fills, further
// events are dropped and counted (the capacity bounds memory, nothing
// blocks, and no slot is ever written twice — recording threads never
// race on a slot, so the buffer is safe to export after the run joins
// its workers).
//
// Export is the Chrome trace-event JSON array format: load the file in
// Perfetto (ui.perfetto.dev) or chrome://tracing and a sharded
// run_async renders as one named track per shard.  Timestamps are
// microseconds from the buffer's epoch (construction or the last
// clear()).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dlb::obs {

/// Event shape.  Span/Instant cover the single-process cases (and
/// record() keeps inferring them from dur_ns, so existing callers are
/// untouched); FlowStart/FlowEnd are the cross-process arrows — a
/// started flow binds to the finishing event carrying the same flow id,
/// which Perfetto renders as an arc between the two tracks.
enum class TracePhase : std::uint8_t {
  Span = 0,
  Instant = 1,
  FlowStart = 2,
  FlowEnd = 3,
};

/// One recorded event.  `name` and `cat` must be string literals (or
/// otherwise outlive the buffer): recording must not allocate.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  std::uint64_t ts_ns = 0;   // span start, ns since the buffer epoch
  std::uint64_t dur_ns = 0;  // 0 => instant event (Span/Instant only)
  std::uint32_t tid = 0;     // track id (shard / rank / 0 = main)
  std::uint64_t arg = 0;     // free-form payload (step, txn id, tag, ...)
  TracePhase phase = TracePhase::Instant;
  std::uint64_t flow_id = 0;  // binds FlowStart to FlowEnd
};

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 1u << 16);

  /// Recording gate.  Disabled buffers drop record() calls after one
  /// relaxed load; enable() re-arms without clearing.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Nanoseconds since the buffer epoch (monotonic).
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records a span [ts_ns, ts_ns + dur_ns); dur_ns == 0 records an
  /// instant.  Wait-free; drops (and counts) when full or disabled.
  void record(const char* name, const char* cat, std::uint64_t ts_ns,
              std::uint64_t dur_ns, std::uint32_t tid,
              std::uint64_t arg = 0) {
    const TracePhase phase =
        dur_ns == 0 ? TracePhase::Instant : TracePhase::Span;
    record_event(TraceEvent{name, cat, ts_ns, dur_ns, tid, arg, phase, 0});
  }

  /// Records a flow endpoint: `start` marks the producing side (a send),
  /// `!start` the consuming side (the matching recv).  Both halves must
  /// carry the same `flow_id` (and the same name/cat — Chrome binds
  /// flows by (cat, id, name)).  Wait-free like record().
  void record_flow(const char* name, const char* cat, std::uint64_t ts_ns,
                   std::uint32_t tid, std::uint64_t flow_id, bool start,
                   std::uint64_t arg = 0) {
    record_event(TraceEvent{name, cat, ts_ns, 0, tid, arg,
                            start ? TracePhase::FlowStart
                                  : TracePhase::FlowEnd,
                            flow_id});
  }

  /// Convenience: a complete span ending now.
  void span_end(const char* name, const char* cat, std::uint64_t start_ns,
                std::uint32_t tid, std::uint64_t arg = 0) {
    const std::uint64_t end = now_ns();
    record(name, cat, start_ns, end > start_ns ? end - start_ns : 0, tid,
           arg);
  }

  /// Instant marker at the current time.
  void instant(const char* name, const char* cat, std::uint32_t tid,
               std::uint64_t arg = 0) {
    record(name, cat, now_ns(), 0, tid, arg);
  }

  /// Labels a track in the exported trace (Perfetto shows the name).
  void set_thread_name(std::uint32_t tid, const std::string& name);

  /// Moves the epoch back by `delta_ns`, so every later now_ns() reads
  /// `delta_ns` higher (negative shifts read lower).  Tests inject an
  /// artificial clock offset this way to exercise the cross-process
  /// offset estimator; production code never calls it.
  void shift_epoch(std::int64_t delta_ns) {
    epoch_ -= std::chrono::nanoseconds(delta_ns);
  }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Recorded events in claim order.  Call only after recording threads
  /// have been joined (or with recording disabled).
  std::vector<TraceEvent> events() const;

  /// Empties the buffer and restarts the epoch.
  void clear();

  /// Chrome trace-event JSON ({"traceEvents": [...]}), one event per
  /// line.  Same quiescence requirement as events().
  void write_chrome_json(std::ostream& os,
                         const std::string& process_name = "dlb") const;

 private:
  void record_event(const TraceEvent& e) {
    if (!enabled()) return;
    const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= ring_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ring_[slot] = e;
  }

  std::vector<TraceEvent> ring_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> enabled_{true};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex names_mutex_;
  std::map<std::uint32_t, std::string> thread_names_;
};

}  // namespace dlb::obs
