// Repeated-run experiment harness (§7's "every experiment was performed
// 100 times").
//
// Each run draws a fresh workload realization and a fresh System seed from
// a master seed, runs the full horizon, and reports into the attached
// sinks: per-step loads into the recorder, event counts (system.*) into
// the registry, whose counters therefore sum over the runs.  Invariants
// are verified at the end of every run, so a silently corrupted
// simulation can never produce a figure.
#pragma once

#include <cstdint>
#include <functional>

#include "core/config.hpp"
#include "metrics/recorder.hpp"
#include "obs/metrics.hpp"
#include "workload/workload.hpp"

namespace dlb {

struct ExperimentSpec {
  std::uint32_t processors = 64;
  std::uint32_t horizon = 500;
  std::uint32_t runs = 100;
  BalancerConfig config;
  std::uint64_t seed = 42;
};

/// Factory invoked once per run with a run-specific generator.
using WorkloadFactory =
    std::function<Workload(std::uint32_t processors, std::uint32_t horizon,
                           Rng& rng)>;

/// Runs the experiment, attaching both sinks to every run's System.
/// Either may be null; neither is owned.
void run_experiment(const ExperimentSpec& spec,
                    const WorkloadFactory& make_workload, Recorder* recorder,
                    obs::MetricsRegistry* registry = nullptr);

/// The §7 benchmark workload factory (paper parameters by default).
WorkloadFactory paper_workload_factory(
    const WorkloadParams& params = WorkloadParams{});

}  // namespace dlb
