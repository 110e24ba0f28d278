// Synthetic workload patterns.
//
// §7 of the paper drives the algorithm with phase-structured random
// workloads: each processor i runs through tuples (g_i, c_i, start_i,
// end_i) and, within a phase, generates a packet with probability g_i and
// consumes one (if available) with probability c_i per global time step.
// The tuple parameters are drawn from (g_l, g_h, c_l, c_h, len_l, len_h).
// Since the paper's theorems hold "for any load pattern", we also provide
// a library of stress patterns (one-producer, hotspot, wave, bursty,
// flip-flop) used by tests and ablation benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace dlb {

/// One workload phase of a single processor: within [start, end] (global
/// time steps, inclusive) the processor generates with probability
/// `generate_prob` and consumes with probability `consume_prob`.
struct Phase {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
  double generate_prob = 0.0;
  double consume_prob = 0.0;
};

/// What a processor does in one global time step.  Generation and
/// consumption are drawn independently, matching §7 ("generates ... with
/// probability g_i and consumes a load packet if available with
/// probability c_i"); the basic model's one-unit-per-step restriction is
/// recovered because the theorems allow any constant number of units per
/// step (§2).
struct WorkEvent {
  bool generate = false;
  bool consume = false;
};

/// The §7 experiment parameters.
struct WorkloadParams {
  double g_low = 0.1;
  double g_high = 0.9;
  double c_low = 0.1;
  double c_high = 0.7;
  std::uint32_t len_low = 150;
  std::uint32_t len_high = 400;
};

/// A fully resolved workload: per-processor phase schedules over a finite
/// horizon.  Resolving the randomness once (at construction) makes a
/// workload replayable across algorithms, which is what the baseline
/// comparison benches need — every algorithm sees the *same* demand.
///
/// Storage is flat: every processor's phases sit in one array in
/// processor order, and processor p's are phases[offsets[p],
/// offsets[p + 1]).  The phases take two heap blocks whatever n is, and
/// an idle processor costs one 4-byte offset.
class Workload {
 public:
  /// `offsets` has processors + 1 entries: it starts at 0, never
  /// descends and ends at phases.size().  Each processor's phases must
  /// be sorted and disjoint, with start <= end and probabilities in
  /// [0, 1].  One scan of the offsets and one of the phases check it
  /// all.
  Workload(std::uint32_t processors, std::uint32_t horizon,
           std::vector<Phase> phases, std::vector<std::uint32_t> offsets,
           std::string name);

  std::uint32_t processors() const { return processors_; }
  std::uint32_t horizon() const { return horizon_; }
  const std::string& name() const { return name_; }
  /// Processor p's phases, sorted by start (empty for an idle
  /// processor); valid as long as the workload.
  std::span<const Phase> phases_of(std::uint32_t processor) const {
    DLB_REQUIRE(processor < processors_, "processor id out of range");
    return {phases_.data() + offsets_[processor],
            phases_.data() + offsets_[processor + 1]};
  }
  /// Phases over all processors: an upper bound on any schedule's
  /// compiled phases.
  std::size_t total_phases() const { return phases_.size(); }

  /// Probability that `processor` generates at step t (0 outside phases).
  double generate_prob(std::uint32_t processor, std::uint32_t t) const;
  double consume_prob(std::uint32_t processor, std::uint32_t t) const;

  /// Draws the processor's action at step t.  A processor outside any
  /// phase draws no random values at all.  Const access (including this
  /// method) is safe from multiple threads as long as each caller brings
  /// its own Rng.
  WorkEvent sample(std::uint32_t processor, std::uint32_t t, Rng& rng) const;

  // ---- Factories ------------------------------------------------------

  /// The paper's §7 benchmark: consecutive random phases per processor.
  static Workload paper_benchmark(std::uint32_t processors,
                                  std::uint32_t horizon,
                                  const WorkloadParams& params, Rng& rng);

  /// Only processor 0 generates (probability 1); nobody consumes.  The
  /// §3 one-processor-generator model.
  static Workload one_producer(std::uint32_t processors,
                               std::uint32_t horizon);

  /// Processor 0 generates with probability g and consumes with
  /// probability c; everyone else is idle.  The §3 producer-consumer
  /// model.
  static Workload one_producer_consumer(std::uint32_t processors,
                                        std::uint32_t horizon, double g,
                                        double c);

  /// Every processor generates with probability g and consumes with
  /// probability c for the whole horizon.
  static Workload uniform(std::uint32_t processors, std::uint32_t horizon,
                          double g, double c);

  /// `hot` processors generate heavily; the rest only consume.
  static Workload hotspot(std::uint32_t processors, std::uint32_t horizon,
                          std::uint32_t hot, double hot_g, double cold_c);

  /// `active` processors generate with probability g and consume with
  /// probability c; the remaining processors have *no phases at all* —
  /// they draw no randomness and fire no events.  The sparse-demand
  /// regime the event-batched step engine targets: a step costs
  /// O(active), independent of n.
  static Workload sparse_hotspot(std::uint32_t processors,
                                 std::uint32_t horizon, std::uint32_t active,
                                 double g, double c);

  /// Generation activity sweeps across the processor range in windows,
  /// so the load source keeps moving — an adversary for any balancing
  /// scheme keyed to static producers.
  static Workload wave(std::uint32_t processors, std::uint32_t horizon,
                       std::uint32_t window);

  /// Alternating global bursts: phases of heavy generation followed by
  /// phases of heavy consumption, everywhere.
  static Workload bursty(std::uint32_t processors, std::uint32_t horizon,
                         std::uint32_t period, double g, double c);

  /// Half the machine generates while the other half consumes; roles swap
  /// every `period` steps.
  static Workload flip_flop(std::uint32_t processors, std::uint32_t horizon,
                            std::uint32_t period, double g, double c);

 private:
  std::uint32_t processors_;
  std::uint32_t horizon_;
  std::vector<Phase> phases_;
  std::vector<std::uint32_t> offsets_;  // processors_ + 1 entries
  std::string name_;

  // Stateless (phases are sorted and disjoint: binary search); safe to
  // call concurrently on one shared Workload.
  const Phase* find_phase(std::uint32_t processor, std::uint32_t t) const;
};

}  // namespace dlb
