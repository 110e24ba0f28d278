// Deterministic fault injection for the message-passing substrates.
//
// The paper's guarantees assume every balance operation conserves load
// and completes; the transputer implementations [7, 8] (and our mp /
// threaded runtimes until now) took lossless, live links for granted.
// This module makes faults a first-class, *seeded* model parameter so
// the robustness of the protocols can be tested reproducibly:
//
//   FaultPlan plan;
//   plan.seed = 7;
//   plan.default_link.drop = 0.05;       // 5% of messages vanish
//   plan.kill(3, 120);                   // rank 3 dies at step 120
//   world.set_fault_plan(plan);
//
// Faults are decided by per-link SplitMix64 streams derived from the
// plan seed, so a (seed, traffic) pair always produces the identical
// fault sequence regardless of thread scheduling: link (s, d) consults
// only its own stream, and only the sender thread of s ever touches it.
//
// Three link faults are modelled:
//   drop       the message silently vanishes (sender does not know*)
//   duplicate  the message is delivered twice
//   delay      the message is held back and delivered just *after* the
//              next message on the same link (a deterministic reorder;
//              a held message with no successor is flushed when the
//              sending rank terminates)
// plus a per-rank crash schedule: kill(rank, at_step) makes that rank's
// step-counter tick throw RankCrashed, after which the rank is dead —
// it sends nothing, answers nothing, and collectives complete without
// it (degraded) instead of hanging.
//
// (*) The injector does tell the *accounting* about every payload it
// does not deliver (mp/fault_transport.hpp) — this is simulation, not
// espionage: conservation checks need to know the declared loss, the
// protocol under test must not peek.
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace dlb {

/// Per-link fault probabilities, each in [0, 1].
struct LinkFaultConfig {
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;

  bool any() const { return drop > 0.0 || duplicate > 0.0 || delay > 0.0; }
};

/// A scheduled crash: `rank` dies when its local step counter reaches
/// `at_step` (i.e. on the tick that enters step `at_step`).
struct CrashEvent {
  int rank = -1;
  std::uint32_t at_step = 0;
};

/// The complete, seeded fault schedule for one launch.
struct FaultPlan {
  std::uint64_t seed = 0x0badfa117'0000001ULL;
  LinkFaultConfig default_link;
  std::vector<CrashEvent> crashes;
  /// Loads are journaled every `journal_interval` steps; on a crash the
  /// rank's recovered load is its last journaled value and the drift
  /// since that boundary is declared lost.
  std::uint32_t journal_interval = 1;

  FaultPlan& kill(int rank, std::uint32_t at_step) {
    crashes.push_back(CrashEvent{rank, at_step});
    return *this;
  }

  /// True when the plan can produce any fault at all.  A default plan is
  /// inert: installing it must not change behaviour.
  bool enabled() const { return default_link.any() || !crashes.empty(); }

  /// The step at which `rank` is scheduled to die, or no value.
  /// (Returned as int64 so -1 can mean "never".)
  std::int64_t crash_step(int rank) const {
    for (const CrashEvent& c : crashes)
      if (c.rank == rank) return static_cast<std::int64_t>(c.at_step);
    return -1;
  }
};

/// What the injector decided for one message on one link.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool delay = false;
};

/// The per-link decision stream.  Exactly one sender thread may use a
/// given instance (the World keeps one per ordered link), which makes
/// the stream deterministic without locks.
class LinkFaultState {
 public:
  LinkFaultState() : rng_(0) {}

  void reset(std::uint64_t plan_seed, int source, int dest,
             const LinkFaultConfig& config);

  /// Rolls the dice for the next message on this link.  Never returns
  /// both drop and duplicate/delay.
  FaultDecision next();

  const LinkFaultConfig& config() const { return config_; }

 private:
  LinkFaultConfig config_;
  Rng rng_;
};

/// Aggregate fault counters for one launch.  Written by rank threads
/// under their own locks / single-writer slots; read after the launch.
struct FaultStats {
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t sends_to_dead = 0;
  std::uint32_t ranks_dead = 0;
  /// Sum of payload "load" declared lost by protocol-level accounting
  /// (dropped transfers, aborted assigns, crash drift).  Signed: an
  /// aborted negative transfer *adds* load to the system.
  std::int64_t declared_lost_load = 0;
};

}  // namespace dlb
