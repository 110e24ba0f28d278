// Compiled per-step active-processor lists.
//
// A Workload is a static phase schedule: every (processor, step) pair is
// either inside exactly one phase or outside all of them, and a
// processor outside any phase draws *no* RNG values in Workload::sample
// (Rng::bernoulli(p) only draws for 0 < p < 1, and out-of-phase
// processors never reach a draw at all).  Skipping those processors is
// therefore bit-identical to sampling them — they contribute nothing to
// the RNG stream and no events.  ActiveSchedule precompiles the phase
// boundaries into sorted (step, processor) event lists so a simulator
// step touches only the processors with a phase covering it: O(active +
// boundary churn) per step instead of O(n).
//
// Phases whose generate AND consume probabilities are both zero are
// elided at compile time for the same reason: bernoulli(0) returns
// without drawing, so a fully silent phase contributes neither RNG draws
// nor events.
//
// strided() restricts the schedule to one residue class of processors —
// the asynchronous engine compiles one schedule per shard, each holding
// only its own processors.
//
// sample_events() is the step's event draw shared by every step engine.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "workload/workload.hpp"

namespace dlb {

class ActiveSchedule {
 public:
  /// One active processor at the current step, with the phase governing
  /// it (never null, never fully silent).
  struct Entry {
    std::uint32_t proc;
    const Phase* phase;
  };

  /// Compiles the schedule for every processor of `workload`.  The
  /// workload must outlive the schedule (entries point into its phase
  /// storage).
  explicit ActiveSchedule(const Workload& workload);

  /// Compiles the schedule for the strided processor set
  /// {p : p ≡ offset (mod stride)}.  The asynchronous engine owns
  /// processors round-robin (owner = p mod shards) so a contiguous
  /// hotspot spreads across shards instead of landing in one block;
  /// the union of the stride schedules over all offsets is exactly the
  /// full schedule.
  static ActiveSchedule strided(const Workload& workload,
                                std::uint32_t offset, std::uint32_t stride);

  std::uint32_t horizon() const { return horizon_; }
  /// Total compiled (non-silent) phases — the schedule's memory is
  /// O(phases), independent of horizon and of n.
  std::size_t compiled_phases() const { return adds_.size(); }

  /// Advances to step t and returns the processors active at t,
  /// ascending by processor id.  Steps must be visited in order
  /// t = 0, 1, 2, ... (call reset() to rewind); the returned reference
  /// is valid until the next advance()/reset().
  const std::vector<Entry>& advance(std::uint32_t t);

  /// Rewinds to step 0 for another pass.
  void reset();

 private:
  ActiveSchedule() = default;  // used by strided()

  // Compiles the boundary lists for {first, first+step, ...} ∩ [0, end).
  void compile(const Workload& workload, std::uint32_t first,
               std::uint32_t end, std::uint32_t step);

  struct Boundary {
    std::uint32_t step;
    std::uint32_t proc;
    const Phase* phase;  // null for removals
  };

  // Phase boundaries sorted by (step, proc): adds_ at phase starts,
  // rems_ at end+1.  Cursors advance monotonically with the step.
  std::vector<Boundary> adds_;
  std::vector<Boundary> rems_;
  std::size_t add_i_ = 0;
  std::size_t rem_i_ = 0;
  std::uint32_t next_t_ = 0;
  std::uint32_t horizon_ = 0;
  // Double-buffered active list: steps with no boundary reuse it as is.
  std::vector<Entry> active_;
  std::vector<Entry> scratch_;
};

/// A step's sampled events: (processor, event) pairs, ascending by
/// processor, holding only events that generate or consume.
using StepEvents = std::vector<std::pair<std::uint32_t, WorkEvent>>;

/// Draws one step's events for `entries` (as returned by
/// ActiveSchedule::advance) into `out`, replacing its contents: per
/// entry in order, the generate Bernoulli then the consume Bernoulli —
/// the draw order of Workload::sample, so every caller stays
/// bit-identical to the plain per-processor loop.
void sample_events(const std::vector<ActiveSchedule::Entry>& entries,
                   Rng& rng, StepEvents& out);

}  // namespace dlb
