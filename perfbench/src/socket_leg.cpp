// The mp layer's legs, run inside every traced run.
//
// Ranks are forked processes over Unix-domain sockets in a rendezvous
// directory under $TMPDIR (run.py points it inside the checkout).  Rank 0
// times each operation from outside the transport and reports its
// samples through a file in the rendezvous directory.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <thread>

#include "dlb_bench.hpp"
#include "mp/process_group.hpp"
#include "mp/remote_comm.hpp"
#include "mp/socket_transport.hpp"
#include "mp/spmd_socket.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workload/trace.hpp"

namespace perfbench {
namespace {

using namespace dlb;

constexpr auto kGroupTimeout = std::chrono::milliseconds(60000);

// Samples rank 0 reported, each line tagged with its series.
struct Samples {
  std::vector<double> rtt_us;
  std::vector<double> gather_us;
  std::vector<double> transfer_us;
  std::vector<double> send_ns;
  std::vector<double> txn_us;
  double link_messages = 0.0;
  double link_bytes = 0.0;
  double delivered = 0.0;
};

void read_samples(const std::string& path, Samples& out) {
  std::ifstream in(path);
  DLB_ENSURE(in.good(), "measuring rank reported nothing");
  std::string tag;
  double v = 0.0;
  while (in >> tag >> v) {
    if (tag == "r") out.rtt_us.push_back(v);
    else if (tag == "g") out.gather_us.push_back(v);
    else if (tag == "t") out.transfer_us.push_back(v);
    else if (tag == "s") out.send_ns.push_back(v);
    else if (tag == "x") out.txn_us.push_back(v);
    else if (tag == "lm") out.link_messages = v;
    else if (tag == "lb") out.link_bytes = v;
    else if (tag == "d") out.delivered = v;
  }
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void run_group(int ranks, const std::function<int(int)>& body,
               const std::string& what) {
  auto group = ProcessGroup::spawn(ranks, body);
  DLB_ENSURE(group.wait_all(kGroupTimeout), what + " did not finish");
  for (int r = 0; r < ranks; ++r)
    DLB_ENSURE(group.exited(r) && group.exit_code(r) == 0,
               what + ": rank " + std::to_string(r) + " failed");
}

// 2-rank ping-pong: send, frame-encode, kernel, wake-up, decode, match.
void rtt_leg(int pings, Samples& out) {
  const std::string dir = ProcessGroup::make_rendezvous_dir();
  const std::string report = dir + "/samples";
  run_group(2, [&](int r) {
    SocketOptions so;
    so.dir = dir;
    SocketTransport t(r, 2, so);
    const std::int64_t word[1] = {42};
    const int warmup = pings / 10 + 1;
    if (r == 0) {
      std::vector<double> us;
      us.reserve(static_cast<std::size_t>(pings));
      for (int i = 0; i < warmup + pings; ++i) {
        const auto a = Clock::now();
        t.send(1, 1, word, 1);
        t.recv(1, 2);
        if (i >= warmup) us.push_back(us_between(a, Clock::now()));
      }
      std::ofstream os(report);
      for (double v : us) os << "r " << v << "\n";
    } else {
      for (int i = 0; i < warmup + pings; ++i) {
        t.recv(0, 1);
        t.send(0, 2, word, 1);
      }
    }
    t.close();
    return 0;
  }, "rtt leg");
  read_samples(report, out);
  ProcessGroup::remove_rendezvous_dir(dir);
}

// The SPMD balance-transaction shape: two allgather_checked rounds (the
// replicated trigger and load collectives) plus one deadline-guarded
// ring transfer.  A transfer whose deadline expires fails the rank.
void txn_leg(int ranks, int rounds, Samples& out) {
  const std::string dir = ProcessGroup::make_rendezvous_dir();
  const std::string report = dir + "/samples";
  run_group(ranks, [&](int r) {
    SocketOptions so;
    so.dir = dir;
    SocketTransport t(r, ranks, so);
    obs::MetricsRegistry reg;
    if (r == 0) t.attach_obs(SocketObs{nullptr, &reg});
    SocketComm comm(t, SocketCommConfig{});
    const int next = (r + 1) % ranks;
    const int prev = (r + ranks - 1) % ranks;
    const int warmup = rounds / 10 + 1;
    const int total = warmup + rounds;
    std::vector<double> g;
    std::vector<double> tr;
    std::vector<double> s;
    std::vector<double> x;
    if (r == 0) {
      g.reserve(2 * static_cast<std::size_t>(rounds));
      tr.reserve(static_cast<std::size_t>(rounds));
      s.reserve(static_cast<std::size_t>(rounds));
      x.reserve(static_cast<std::size_t>(rounds));
    }
    GatherResult gathered;
    for (int i = 0; i < total; ++i) {
      const auto a = Clock::now();
      comm.allgather_checked(17, gathered);  // trigger round
      const auto b = Clock::now();
      comm.allgather_checked(23, gathered);  // load round
      const auto c = Clock::now();
      comm.send(next, 100, {1});
      const auto d = Clock::now();
      const auto transfer =
          comm.recv_for(prev, 100, std::chrono::milliseconds(1000));
      const auto e = Clock::now();
      if (!transfer.has_value()) return 1;
      if (r == 0 && i >= warmup) {
        g.push_back(us_between(a, b));
        g.push_back(us_between(b, c));
        s.push_back(us_between(c, d) * 1e3);
        tr.push_back(us_between(c, e));
        x.push_back(us_between(a, e));
      }
    }
    if (r == 0) {
      const std::string link = "mp.link." + std::to_string(prev) + "->0";
      std::ofstream os(report);
      for (double v : g) os << "g " << v << "\n";
      for (double v : tr) os << "t " << v << "\n";
      for (double v : s) os << "s " << v << "\n";
      for (double v : x) os << "x " << v << "\n";
      os << "lm " << reg.counter(link + ".messages").value() << "\n"
         << "lb " << reg.counter(link + ".bytes").value() << "\n"
         << "d "
         << static_cast<double>(reg.counter("mp.delivered").value()) / total
         << "\n";
    }
    comm.close();
    return 0;
  }, "transaction leg");
  read_samples(report, out);
  ProcessGroup::remove_rendezvous_dir(dir);
}

double pct(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int run_socket_legs(const Options& opts, Report& report) {
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int ranks = std::clamp(nproc, 2, 4);
  Samples s;
  rtt_leg(opts.tiny ? 200 : 4000, s);
  txn_leg(ranks, opts.tiny ? 100 : 2000, s);
  report.count_attempt(2);

  // One short SPMD balancer run over the same transport: its ledger must
  // close exactly (sum(final) == generated - consumed - declared losses).
  {
    Rng rng(opts.seed);
    const Workload wl = Workload::paper_benchmark(
        static_cast<std::uint32_t>(ranks), 40, WorkloadParams{}, rng);
    Rng trace_rng(opts.seed + 1);
    const Trace trace = Trace::record(wl, trace_rng);
    SocketRunOptions so;
    so.ranks = ranks;
    const SocketRunResult res = run_spmd_balancer_socket(trace, so);
    report.count_attempt();
    if (!res.report.conserved)
      report.fail("socket: run_spmd_balancer_socket did not conserve load");
  }

  report.add("mp.rtt_us.p50", pct(s.rtt_us, 0.5), "us");
  report.add("mp.rtt_us.p99", pct(s.rtt_us, 0.99), "us");
  report.add("mp.gather_us.p50", pct(s.gather_us, 0.5), "us");
  report.add("mp.gather_us.p99", pct(s.gather_us, 0.99), "us");
  report.add("mp.transfer_us.p50", pct(s.transfer_us, 0.5), "us");
  report.add("mp.transfer_us.p99", pct(s.transfer_us, 0.99), "us");
  report.add("mp.send_ns.p50", pct(s.send_ns, 0.5), "ns");
  report.add("mp.txn_us.p50", pct(s.txn_us, 0.5), "us");
  report.add("mp.txn_us.p99", pct(s.txn_us, 0.99), "us");
  report.add("mp.wire_bytes_per_msg",
             s.link_messages == 0.0 ? 0.0 : s.link_bytes / s.link_messages,
             "B");
  report.add("mp.msgs_per_txn", s.delivered, "count");
  return ranks;
}

}  // namespace perfbench
