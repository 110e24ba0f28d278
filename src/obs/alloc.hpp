// Heap-allocation accounting for the zero-allocation steady-state gate.
//
// The balancing hot paths are supposed to stop touching the allocator
// once their scratch has warmed up (ISSUE 7 / DESIGN.md §11).  "Supposed
// to" is not a property reviews can keep true — so this module replaces
// the replaceable global `operator new` family with a counting shim
// (alloc.cpp) and exposes the counts to engines, tests, and benches:
//
//   - alloc_counts()        — this thread's cumulative (count, bytes).
//   - AllocPhase            — rebase-and-delta sampler for a code span.
//   - AllocTally            — per-engine accumulator: total allocations,
//                             how many steps were dirty, and the last
//                             dirty step (== end of warmup when the
//                             invariant holds).
//
// Counters are *thread-local*: each engine thread samples only its own
// allocations, exactly and without atomic contention, so concurrent
// engines (run_async shards, ThreadedSystem workers) can each account
// their own phases and merge tallies at join points.  The shim counts
// every operator-new call made by this binary (including std::vector
// growth); operator delete is not tracked — the invariant under test is
// "no allocations", not leak accounting.
//
// The shim is linked into every binary that references this header's
// symbols (the dlb_obs object file is pulled in by the engines'
// instrumentation), costs two thread-local increments per allocation,
// and nothing at all on code paths that do not allocate — which is the
// entire point.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace dlb::obs {

/// Cumulative operator-new activity of the calling thread.
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;

  AllocCounts operator-(const AllocCounts& o) const {
    return {count - o.count, bytes - o.bytes};
  }
};

/// Returns the calling thread's cumulative allocation counters
/// (monotone; starts at 0 per thread).
AllocCounts alloc_counts();

/// Delta sampler: rebase() pins the current counters, delta() reports
/// activity since the last rebase.  A phase is typically one step:
///   phase.rebase();  ...step body...  tally.note(step, phase.delta());
class AllocPhase {
 public:
  void rebase() { base_ = alloc_counts(); }
  AllocCounts delta() const { return alloc_counts() - base_; }
  /// delta() then rebase() in one sample (single counter read).
  AllocCounts take() {
    const AllocCounts now = alloc_counts();
    const AllocCounts d = now - base_;
    base_ = now;
    return d;
  }

 private:
  AllocCounts base_{};
};

/// Per-engine accumulation of per-phase deltas.  `last_dirty_step` is
/// the highest phase index that allocated (-1 when none did): when the
/// zero-allocation invariant holds it marks the end of warmup, and every
/// later step ran allocation-free.
struct AllocTally {
  std::uint64_t count = 0;        // allocations across all noted phases
  std::uint64_t bytes = 0;        // bytes across all noted phases
  std::uint64_t dirty_steps = 0;  // phases with count > 0
  std::int64_t last_dirty_step = -1;

  void note(std::int64_t step, const AllocCounts& delta) {
    if (delta.count == 0) return;
    count += delta.count;
    bytes += delta.bytes;
    ++dirty_steps;
    if (step > last_dirty_step) last_dirty_step = step;
  }

  /// Merges another tally (e.g. a worker thread's) into this one.
  void merge(const AllocTally& o) {
    count += o.count;
    bytes += o.bytes;
    dirty_steps += o.dirty_steps;
    if (o.last_dirty_step > last_dirty_step)
      last_dirty_step = o.last_dirty_step;
  }
};

/// Publishes a tally under `<prefix>.alloc.*`: `count`/`bytes`/
/// `dirty_steps` counters (cumulative across runs sharing the registry)
/// plus the `warmup_end_step` gauge — last_dirty_step + 1, so 0 means
/// "no instrumented phase ever allocated" (overwritten per run).
void publish(MetricsRegistry& registry, const char* prefix,
             const AllocTally& tally);

}  // namespace dlb::obs
