#include "workload/schedule.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dlb {

ActiveSchedule::ActiveSchedule(const Workload& workload)
    : horizon_(workload.horizon()) {
  compile(workload, 0, workload.processors(), 1);
}

ActiveSchedule ActiveSchedule::strided(const Workload& workload,
                                       std::uint32_t offset,
                                       std::uint32_t stride) {
  DLB_REQUIRE(stride >= 1, "schedule stride must be at least 1");
  DLB_REQUIRE(offset < stride, "schedule offset must be below the stride");
  ActiveSchedule schedule;
  schedule.horizon_ = workload.horizon();
  schedule.compile(workload, offset, workload.processors(), stride);
  return schedule;
}

void ActiveSchedule::compile(const Workload& workload, std::uint32_t first,
                             std::uint32_t end, std::uint32_t step) {
  // A counting sort by step: one pass over the processors collects the
  // compiled phases and counts each step's boundaries, then both lists
  // are sized once and filled bucket by bucket.  Processors are visited
  // in ascending order, so each step's bucket comes out processor-ordered
  // — the (step, proc) order advance() merges by — with no comparison
  // sort.  (step, proc) pairs are unique per list: a processor's phases
  // are disjoint, so it contributes at most one add and one remove per
  // step.  Adds start below horizon_ and removals land in [1, horizon_].
  // The run loop only visits t < horizon, so the removal step is clamped
  // to horizon (also avoids end+1 overflow for end == UINT32_MAX).
  const auto rem_step = [&](const Phase& ph) {
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ph.end, horizon_ - 1) + 1);
  };
  // add_at[t + 1] and rem_at[t + 1] count step t's boundaries; the prefix
  // sums then turn add_at[t] and rem_at[t] into step t's first index.
  const std::size_t buckets = std::size_t{horizon_} + 2;
  std::vector<std::size_t> add_at(buckets, 0);
  std::vector<std::size_t> rem_at(buckets, 0);
  // The compiled phases, processor order; sized once from the phase
  // count, which bounds them for a strided schedule too.
  std::vector<Boundary> found;
  found.reserve(workload.total_phases());
  for (std::uint32_t p = first; p < end; p += step) {
    for (const Phase& ph : workload.phases_of(p)) {
      if (ph.generate_prob == 0.0 && ph.consume_prob == 0.0)
        continue;  // silent phase: no draws, no events (see header)
      if (ph.start >= horizon_) continue;  // never reached
      found.push_back(Boundary{ph.start, p, &ph});
      ++add_at[ph.start + 1];
      ++rem_at[std::size_t{rem_step(ph)} + 1];
    }
  }
  for (std::size_t t = 1; t < buckets; ++t) {
    add_at[t] += add_at[t - 1];
    rem_at[t] += rem_at[t - 1];
  }
  adds_.resize(found.size());
  rems_.resize(found.size());
  for (const Boundary& b : found) {
    adds_[add_at[b.step]++] = b;
    const std::uint32_t rem = rem_step(*b.phase);
    rems_[rem_at[rem]++] = Boundary{rem, b.proc, nullptr};
  }
}

void ActiveSchedule::reset() {
  add_i_ = 0;
  rem_i_ = 0;
  next_t_ = 0;
  active_.clear();
}

const std::vector<ActiveSchedule::Entry>& ActiveSchedule::advance(
    std::uint32_t t) {
  DLB_REQUIRE(t == next_t_, "schedule must advance one step at a time");
  DLB_REQUIRE(t < horizon_, "step beyond the workload horizon");
  ++next_t_;
  const std::size_t a0 = add_i_;
  const std::size_t r0 = rem_i_;
  while (add_i_ < adds_.size() && adds_[add_i_].step == t) ++add_i_;
  while (rem_i_ < rems_.size() && rems_[rem_i_].step == t) ++rem_i_;
  if (a0 == add_i_ && r0 == rem_i_) return active_;  // no boundary at t

  // Three-way merge (old active \ removals) ∪ additions, all ascending
  // by processor.  A processor in both lists hands off from its ended
  // phase to the one starting this step.
  scratch_.clear();
  std::size_t i = 0;
  std::size_t a = a0;
  std::size_t r = r0;
  while (i < active_.size() || a < add_i_) {
    if (a == add_i_ ||
        (i < active_.size() && active_[i].proc < adds_[a].proc)) {
      if (r < rem_i_ && rems_[r].proc == active_[i].proc) {
        ++r;  // phase ended, nothing starts: drop
      } else {
        scratch_.push_back(active_[i]);
      }
      ++i;
    } else if (i == active_.size() || adds_[a].proc < active_[i].proc) {
      scratch_.push_back(Entry{adds_[a].proc, adds_[a].phase});
      ++a;
    } else {
      // Same processor: phases are disjoint, so the old one must end
      // exactly where the new one starts.
      DLB_ENSURE(r < rem_i_ && rems_[r].proc == active_[i].proc,
                 "overlapping phases in the compiled schedule");
      ++r;
      scratch_.push_back(Entry{adds_[a].proc, adds_[a].phase});
      ++a;
      ++i;
    }
  }
  DLB_ENSURE(r == rem_i_, "schedule removal without a matching active entry");
  active_.swap(scratch_);
  return active_;
}

void sample_events(const std::vector<ActiveSchedule::Entry>& entries,
                   Rng& rng, StepEvents& out) {
  out.resize(entries.size());
  // The generator runs on a local copy: the event writes below cannot
  // alias it, so its state stays in registers instead of being stored
  // back after every draw.  Every entry is written and the output index
  // advances by the event flag, so no branch depends on a draw.
  Rng local = rng;
  std::pair<std::uint32_t, WorkEvent>* dst = out.data();
  std::size_t k = 0;
  for (const ActiveSchedule::Entry& e : entries) {
    WorkEvent ev;
    ev.generate = local.bernoulli(e.phase->generate_prob);
    ev.consume = local.bernoulli(e.phase->consume_prob);
    dst[k] = {e.proc, ev};
    k += static_cast<std::size_t>(ev.generate | ev.consume);
  }
  out.resize(k);
  rng = local;
}

}  // namespace dlb
