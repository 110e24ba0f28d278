// Socket-transport latency microbench: what a real process boundary
// costs the balancer, measured on the two traffic shapes that matter.
//
//   - socket_rtt  (n=2): message round-trip over the framed stream
//     socket path — send, frame-encode, kernel, frame-decode, match —
//     the per-hop cost every transfer packet pays twice.
//   - socket_txn  (n=4): one balancing transaction's worth of traffic,
//     as the SPMD runtime shapes it: two 4-rank gather rounds (the
//     replicated trigger + load collectives) plus one point-to-point
//     transfer with a deadline-guarded receive.
//
// Ranks are real forked processes over Unix-domain sockets (--tcp for
// the TCP loopback backend); the measuring rank reports through the
// rendezvous directory.  Rows land in BENCH_core.json's shape so
// tools/perf_check.sh gates them like every other hot-path metric.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "mp/process_group.hpp"
#include "mp/remote_comm.hpp"
#include "mp/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

using namespace dlb;

namespace {

using Clock = std::chrono::steady_clock;

// One leg's outcome: the latency plus the delivered wire traffic the
// measuring rank observed on its hottest incoming link.  The counts
// are exact, not sampled — the protocol blocks until every frame is
// through, so messages == what the shape dictates and bytes/messages
// is the deterministic framing overhead the perf gate pins.
struct LegResult {
  double us = 0.0;
  std::uint64_t link_messages = 0;
  std::uint64_t link_bytes = 0;
};

LegResult read_reported(const std::string& path) {
  std::ifstream in(path);
  LegResult r;
  DLB_ENSURE(static_cast<bool>(in >> r.us >> r.link_messages >>
                               r.link_bytes) &&
                 r.us >= 0.0,
             "measuring rank reported nothing");
  return r;
}

void report_leg(const std::string& path, double us,
                obs::MetricsRegistry& reg, int from) {
  std::string link = "mp.link.";
  link += std::to_string(from);
  link += "->0";
  std::ofstream(path) << us << " "
                      << reg.counter(link + ".messages").value() << " "
                      << reg.counter(link + ".bytes").value() << "\n";
}

LegResult time_rtt(bool tcp, int pings) {
  const std::string dir = ProcessGroup::make_rendezvous_dir();
  const std::string report = dir + "/measured_us";
  auto group = ProcessGroup::spawn(2, [&dir, &report, tcp, pings](int r) {
    SocketOptions opts;
    opts.dir = dir;
    opts.tcp = tcp;
    SocketTransport t(r, 2, opts);
    obs::MetricsRegistry reg;
    if (r == 0) t.attach_obs(SocketObs{nullptr, &reg});
    const std::int64_t word[1] = {42};
    const int warmup = pings / 10 + 1;
    if (r == 0) {
      for (int i = 0; i < warmup; ++i) {
        t.send(1, 1, word, 1);
        t.recv(1, 2);
      }
      const auto t0 = Clock::now();
      for (int i = 0; i < pings; ++i) {
        t.send(1, 1, word, 1);
        t.recv(1, 2);
      }
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count() /
          pings;
      report_leg(report, us, reg, 1);
    } else {
      for (int i = 0; i < warmup + pings; ++i) {
        t.recv(0, 1);
        t.send(0, 2, word, 1);
      }
    }
    t.close();
    return 0;
  });
  DLB_ENSURE(group.wait_all(std::chrono::milliseconds(120000)),
             "rtt bench did not finish");
  const LegResult res = read_reported(report);
  ProcessGroup::remove_rendezvous_dir(dir);
  return res;
}

LegResult time_txn(bool tcp, int rounds) {
  constexpr int kRanks = 4;
  const std::string dir = ProcessGroup::make_rendezvous_dir();
  const std::string report = dir + "/measured_us";
  auto group = ProcessGroup::spawn(kRanks, [&dir, &report, tcp,
                                            rounds](int r) {
    SocketOptions opts;
    opts.dir = dir;
    opts.tcp = tcp;
    SocketTransport t(r, kRanks, opts);
    obs::MetricsRegistry reg;
    if (r == 0) t.attach_obs(SocketObs{nullptr, &reg});
    SocketComm comm(t, SocketCommConfig{});
    const int next = (r + 1) % kRanks;
    const int prev = (r + kRanks - 1) % kRanks;
    GatherResult gathered;
    const auto txn = [&] {
      comm.allgather_checked(17, gathered);  // trigger round
      comm.allgather_checked(23, gathered);  // load round
      comm.send(next, 100, {1});
      const auto transfer =
          comm.recv_for(prev, 100, std::chrono::milliseconds(1000));
      DLB_ENSURE(transfer.has_value(), "transfer lost on a clean network");
    };
    const int warmup = rounds / 10 + 1;
    for (int i = 0; i < warmup; ++i) txn();
    const auto t0 = Clock::now();
    for (int i = 0; i < rounds; ++i) txn();
    if (r == 0) {
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count() /
          rounds;
      // The hottest incoming link at rank 0 is prev->0: two gather
      // contributions plus the ring transfer per transaction.
      report_leg(report, us, reg, prev);
    }
    comm.close();
    return 0;
  });
  DLB_ENSURE(group.wait_all(std::chrono::milliseconds(240000)),
             "txn bench did not finish");
  const LegResult res = read_reported(report);
  ProcessGroup::remove_rendezvous_dir(dir);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  opts.add_int("pings", 2000, "round trips to time (rtt leg)")
      .add_int("rounds", 400, "balance transactions to time (txn leg)")
      .add_flag("tcp", "TCP loopback instead of Unix-domain sockets")
      .add_string("json_out", "", "write the measured rows as JSON "
                                  "(BENCH_core.json shape)");
  if (!opts.parse(argc, argv)) return 1;
  const bool tcp = opts.get_flag("tcp");

  bench::print_header(
      "socket transport latency (rtt + balance transaction)",
      "engineering extension: the cost of a real process boundary under "
      "the transputer-style message protocol");

  const LegResult rtt =
      time_rtt(tcp, static_cast<int>(opts.get_int("pings")));
  const LegResult txn =
      time_txn(tcp, static_cast<int>(opts.get_int("rounds")));
  const auto per_msg = [](const LegResult& r) {
    return r.link_messages == 0
               ? 0.0
               : static_cast<double>(r.link_bytes) /
                     static_cast<double>(r.link_messages);
  };

  TextTable table(
      {"workload", "ranks", "latency us", "link msgs", "wire B/msg"});
  table.row().cell("socket_rtt").cell(std::size_t{2}).cell(rtt.us, 1)
      .cell(static_cast<std::size_t>(rtt.link_messages))
      .cell(per_msg(rtt), 1);
  table.row().cell("socket_txn").cell(std::size_t{4}).cell(txn.us, 1)
      .cell(static_cast<std::size_t>(txn.link_messages))
      .cell(per_msg(txn), 1);
  table.print(std::cout);
  std::cout << "\ntransport: " << (tcp ? "tcp loopback" : "unix-domain")
            << "; txn = two 4-rank gather rounds + one deadline-guarded "
               "p2p transfer; link columns = delivered traffic on the "
               "measuring rank's hottest incoming link (exact, so the "
               "perf gate pins wire overhead)\n";

  bench::JsonRows json;
  json.row()
      .set("workload", "socket_rtt")
      .set("n", std::int64_t{2})
      .set("rtt_us", rtt.us)
      .set("link_messages", static_cast<std::int64_t>(rtt.link_messages))
      .set("link_bytes", static_cast<std::int64_t>(rtt.link_bytes))
      .set("wire_bytes_per_msg", per_msg(rtt));
  json.row()
      .set("workload", "socket_txn")
      .set("n", std::int64_t{4})
      .set("txn_us", txn.us)
      .set("link_messages", static_cast<std::int64_t>(txn.link_messages))
      .set("link_bytes", static_cast<std::int64_t>(txn.link_bytes))
      .set("wire_bytes_per_msg", per_msg(txn));
  const std::string json_out = opts.get_string("json_out");
  if (!json_out.empty() && json.write_file(json_out))
    std::cout << "(json written to " << json_out << ")\n";
  return 0;
}
