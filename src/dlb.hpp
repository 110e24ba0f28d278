// Umbrella header for the dlb library — a reproduction of
// R. Lüling & B. Monien, "A Dynamic Distributed Load Balancing Algorithm
// with Provable Good Performance", SPAA 1993.
//
// Typical usage (see examples/quickstart.cpp):
//
//   #include "dlb.hpp"
//   dlb::BalancerConfig cfg;            // f, delta, C
//   dlb::System sys(16, cfg, seed);     // simulated 16-processor network
//   sys.run(dlb::Workload::paper_benchmark(16, 500, {}, rng));
//   auto report = dlb::measure_imbalance(sys.loads());
//
// Sub-headers can of course be included individually.
#pragma once

#include "baselines/adapter.hpp"    // the algorithm behind the comparison API
#include "baselines/balancer.hpp"   // strategy interface + trace replay
#include "baselines/diffusion.hpp"  // first-order diffusion baseline
#include "baselines/dimension_exchange.hpp"  // hypercube dimension exchange
#include "baselines/gradient.hpp"   // gradient model (Lin & Keller 1987) [6]
#include "baselines/rsu.hpp"        // Rudolph-Slivkin-Allalouf-Upfal (SPAA'91)
#include "baselines/simple.hpp"     // no-balancing + random-scatter strawman
#include "baselines/stealing.hpp"   // steal-half work stealing
#include "core/config.hpp"          // BalancerConfig (f, delta, C)
#include "core/experiment.hpp"      // repeated-run harness (§7)
#include "core/item_system.hpp"     // payload-carrying packets
#include "core/ledger.hpp"          // d/b packet ledger (§4)
#include "core/one_processor.hpp"   // §3 one-processor models
#include "core/snake.hpp"           // ±1 snake redistribution
#include "core/async_system.hpp"    // event-driven simulator with latency
#include "core/system.hpp"          // the n-processor simulator
#include "metrics/imbalance.hpp"    // imbalance measures
#include "metrics/recorder.hpp"     // per-step load observers (figures)
#include "net/cost_model.hpp"       // message/migration cost accounting
#include "net/topology.hpp"         // interconnection networks
#include "mp/communicator.hpp"      // mini message-passing interface
#include "runtime/threaded_system.hpp"  // threaded runtime on mp::World
#include "support/cli.hpp"          // bench option parsing
#include "support/rng.hpp"          // xoshiro256** deterministic PRNG
#include "support/stats.hpp"        // Welford moments, series aggregation
#include "support/plot.hpp"         // ASCII charts for figure benches
#include "support/table.hpp"        // text/CSV tables
#include "theory/bounds.hpp"        // Thm 4, Lemmas 5/6
#include "theory/operators.hpp"     // G, C, FIX (Thms 1-3)
#include "theory/computation_graph.hpp"  // §5 formalism, literal
#include "theory/variation.hpp"     // §5 variation density (exact + MC)
#include "workload/trace.hpp"       // record/replay demand
#include "workload/workload.hpp"    // §7 phase workloads + pattern library
