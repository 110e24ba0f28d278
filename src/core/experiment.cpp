#include "core/experiment.hpp"

#include "core/system.hpp"
#include "support/check.hpp"

namespace dlb {

void run_experiment(const ExperimentSpec& spec,
                    const WorkloadFactory& make_workload, Recorder* recorder,
                    obs::MetricsRegistry* registry) {
  DLB_REQUIRE(spec.runs >= 1, "experiment needs at least one run");
  spec.config.validate(spec.processors);
  Rng master(spec.seed);
  for (std::uint32_t run = 0; run < spec.runs; ++run) {
    Rng workload_rng = master.split();
    const std::uint64_t system_seed = master.next();
    const Workload workload =
        make_workload(spec.processors, spec.horizon, workload_rng);
    System system(spec.processors, spec.config, system_seed);
    system.attach_recorder(recorder);
    system.attach_metrics(registry);
    system.run(workload);
    system.check_invariants();
  }
}

WorkloadFactory paper_workload_factory(const WorkloadParams& params) {
  return [params](std::uint32_t processors, std::uint32_t horizon,
                  Rng& rng) {
    return Workload::paper_benchmark(processors, horizon, params, rng);
  };
}

}  // namespace dlb
