// Workload runners of the benchmark.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

/// Pinned engine shape: async-det results are deterministic only per
/// (seed, shards, epoch_steps), so neither is derived from the host.
inline constexpr std::uint32_t kAsyncShards = 2;
inline constexpr std::uint32_t kAsyncEpochSteps = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_dir;
};

/// Runs one simulation workload (paper or serving) and fills
/// `report`.  Returns false for an unknown workload name.
bool run_simulation(const Options& opts, Report& report, Provenance& prov);

/// The mp layer's per-layer metrics: a 2-rank ping-pong and the SPMD
/// balance-transaction shape over forked ranks on Unix-domain sockets,
/// plus one short run_spmd_balancer_socket whose ledger must close.
/// Returns the rank count used for the transaction leg.
int run_socket_legs(const Options& opts, Report& report);

}  // namespace perfbench
