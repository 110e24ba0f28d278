#include "mp/spmd_socket.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "mp/clock_sync.hpp"
#include "mp/fault_transport.hpp"
#include "mp/journal_io.hpp"
#include "mp/process_group.hpp"
#include "mp/remote_comm.hpp"
#include "mp/socket_transport.hpp"
#include "mp/spmd_rank.hpp"
#include "obs/merge.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace dlb {

namespace {

std::string report_path(const std::string& dir, int rank) {
  return dir + "/report." + std::to_string(rank);
}

std::string trace_path(const std::string& dir, int rank) {
  return dir + "/trace." + std::to_string(rank);
}

std::string metrics_path(const std::string& dir, int rank) {
  return dir + "/metrics." + std::to_string(rank);
}

bool obs_enabled(const SocketRunOptions& opts) {
  return opts.collect_obs || !opts.trace_out.empty() ||
         !opts.metrics_out.empty();
}

/// Write-then-rename, like every other file the ranks publish: the
/// parent (or a post-mortem reader) never sees a torn file.
template <typename Body>
void write_file_atomic(const std::string& path, Body&& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    body(out);
  }
  DLB_ENSURE(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot publish " + path);
}

std::string recovered_path(const std::string& dir, int rank) {
  return dir + "/recovered." + std::to_string(rank);
}

/// Everything a cleanly-exiting rank hands back to the parent.
struct RankReport {
  bool valid = false;
  std::int64_t load = 0;
  std::int64_t generated = 0;
  std::int64_t consumed = 0;
  std::int64_t declared = 0;
  std::int64_t ops = 0;
  std::int64_t moved = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t retries = 0;
  std::uint64_t corrupt = 0;
};

/// Key-value lines, written to a temp name and renamed so the parent
/// never reads a torn report.
void write_report(const std::string& dir, int rank, std::int64_t load,
                  const SocketComm& comm, const RankTallies& tally,
                  const FaultStats& stats, const SocketTransport& transport) {
  const std::string path = report_path(dir, rank);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    // No generated/consumed here: the parent reads those from the
    // journal mirror, which is the authority for both clean and dead
    // ranks.
    out << "dlb-rank-report 1\n"
        << "load " << load << "\n"
        << "declared " << comm.declared_lost() << "\n"
        << "ops " << tally.rounds_initiated << "\n"
        << "moved " << tally.packets_moved << "\n"
        << "timeouts " << tally.recv_timeouts << "\n"
        << "degraded " << tally.degraded_rounds << "\n"
        << "dropped " << stats.messages_dropped << "\n"
        << "duplicated " << stats.messages_duplicated << "\n"
        << "delayed " << stats.messages_delayed << "\n"
        << "retries " << transport.connect_retries() << "\n"
        << "corrupt " << transport.frames_corrupt() << "\n";
  }
  DLB_ENSURE(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot publish rank report");
}

std::optional<std::pair<std::string, std::int64_t>> parse_kv(
    const std::string& line) {
  std::istringstream ls(line);
  std::string key;
  std::int64_t value = 0;
  if (!(ls >> key >> value)) return std::nullopt;
  return std::make_pair(key, value);
}

RankReport read_report(const std::string& dir, int rank) {
  RankReport rep;
  std::ifstream in(report_path(dir, rank));
  if (!in.is_open()) return rep;
  std::string line;
  if (!std::getline(in, line) || line.rfind("dlb-rank-report 1", 0) != 0)
    return rep;
  rep.valid = true;
  while (std::getline(in, line)) {
    const auto kv = parse_kv(line);
    if (!kv) continue;
    const std::int64_t v = kv->second;
    if (kv->first == "load") rep.load = v;
    else if (kv->first == "generated") rep.generated = v;
    else if (kv->first == "consumed") rep.consumed = v;
    else if (kv->first == "declared") rep.declared = v;
    else if (kv->first == "ops") rep.ops = v;
    else if (kv->first == "moved") rep.moved = v;
    else if (kv->first == "timeouts") rep.timeouts = static_cast<std::uint64_t>(v);
    else if (kv->first == "degraded") rep.degraded = static_cast<std::uint64_t>(v);
    else if (kv->first == "dropped") rep.dropped = static_cast<std::uint64_t>(v);
    else if (kv->first == "duplicated") rep.duplicated = static_cast<std::uint64_t>(v);
    else if (kv->first == "delayed") rep.delayed = static_cast<std::uint64_t>(v);
    else if (kv->first == "retries") rep.retries = static_cast<std::uint64_t>(v);
    else if (kv->first == "corrupt") rep.corrupt = static_cast<std::uint64_t>(v);
  }
  return rep;
}

/// The forked rank: transport stack, shared balancer body, report.
int child_rank(int rank, const Trace& trace, const SocketRunOptions& opts,
               const std::string& dir) {
  // Rank-local observability, attached before any traffic so both ends
  // of every link count flow sequences from zero.  Declared ahead of
  // the transport: the export lambdas must outlive it.
  const bool obs_on = obs_enabled(opts);
  std::optional<obs::MetricsRegistry> reg;
  std::optional<obs::TraceBuffer> tbuf;
  if (obs_on) {
    reg.emplace();
    tbuf.emplace(std::size_t{1} << 15);
  }

  SocketOptions so;
  so.dir = dir;
  so.tcp = opts.tcp;
  so.heartbeat = opts.heartbeat;
  so.suspect_after = opts.suspect_after;
  so.connect_timeout = opts.connect_timeout;
  SocketTransport socket(rank, opts.ranks, so);
  if (obs_on) socket.attach_obs(SocketObs{&*tbuf, &*reg});

  // Per-process fault accounting (the parent sums the reports).
  std::mutex stats_mutex;
  FaultStats stats;
  std::optional<FaultyTransport> faulty;
  if (opts.plan.enabled())
    faulty.emplace(socket, opts.plan,
                   FaultSink{&stats_mutex, &stats, nullptr, nullptr, nullptr,
                             nullptr, nullptr});
  Transport& transport =
      faulty ? static_cast<Transport&>(*faulty) : socket;

  // Clock-sync against rank 0 right after the mesh completes — before
  // the first tick, so no scheduled kill can strand the exchange.
  std::int64_t clock_offset = 0;
  if (obs_on) clock_offset = sync_clocks(transport, *tbuf).offset_ns;

  const auto flush_metrics = [&] {
    if (!reg) return;
    write_file_atomic(metrics_path(dir, rank),
                      [&](std::ostream& os) { reg->write_state(os); });
  };
  const auto flush_trace = [&] {
    if (!tbuf) return;
    write_file_atomic(trace_path(dir, rank), [&](std::ostream& os) {
      obs::write_rank_trace(os, *tbuf, rank, clock_offset);
    });
  };

  SocketCommConfig cc;
  cc.plan = opts.plan;
  cc.journal_path = journal_path(dir, rank);
  if (obs_on) {
    cc.trace = &*tbuf;
    // Durable metrics ride alongside the journal: deaths happen at the
    // next tick, *before* any step traffic, so the last per-journal
    // flush already covers every message a killed rank ever sent and
    // post-crash aggregation closes exactly.
    cc.on_journal = flush_metrics;
    cc.on_crash = [&](std::uint32_t) {
      flush_metrics();
      flush_trace();
    };
  }
  SocketComm comm(transport, cc);

  RankTallies tally;
  std::int64_t final_load = 0;
  {
    // The shared body tracks load internally; recompute the final load
    // from the journal mirror (last line == final state) to avoid
    // widening the body's interface for one caller.
    spmd_balance_rank(comm, trace, opts.params, tally);
    const JournalRecovery rec = recover_journal(journal_path(dir, rank));
    final_load = rec.valid ? rec.shadow_load : 0;
  }
  if (faulty) faulty->flush();
  if (obs_on) {
    // Rank-local run tallies as gauges (gauges sum across the merge,
    // so the aggregate spmd.final_load is the machine's total load).
    reg->gauge("spmd.final_load").set(final_load);
    reg->gauge("spmd.rounds_initiated").set(tally.rounds_initiated);
    reg->gauge("spmd.packets_moved").set(tally.packets_moved);
    reg->gauge("spmd.recv_timeouts")
        .set(static_cast<std::int64_t>(tally.recv_timeouts));
    reg->gauge("spmd.declared_lost").set(comm.declared_lost());
    flush_metrics();
    flush_trace();
  }
  write_report(dir, rank, final_load, comm, tally, stats, socket);
  comm.close();
  return 0;
}

void write_recovered(const std::string& dir, int rank,
                     const JournalRecovery& rec) {
  const std::string path = recovered_path(dir, rank);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << "dlb-rank-recovered 1\n"
        << "load " << rec.committed_load << "\n"
        << "step " << rec.last_step << "\n"
        << "declared " << rec.declared_lost << "\n";
  }
  DLB_ENSURE(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot publish recovery report");
}

std::optional<std::int64_t> read_recovered_load(const std::string& dir,
                                                int rank) {
  std::ifstream in(recovered_path(dir, rank));
  if (!in.is_open()) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line.rfind("dlb-rank-recovered 1", 0) != 0)
    return std::nullopt;
  while (std::getline(in, line)) {
    const auto kv = parse_kv(line);
    if (kv && kv->first == "load") return kv->second;
  }
  return std::nullopt;
}

}  // namespace

SocketRunResult run_spmd_balancer_socket(const Trace& trace,
                                         const SocketRunOptions& opts) {
  const int n = opts.ranks;
  DLB_REQUIRE(n >= 1, "socket run needs at least one rank");
  DLB_REQUIRE(trace.processors() == static_cast<std::uint32_t>(n),
              "trace size must match the rank count");
  DLB_REQUIRE(opts.params.f > 1.0, "spmd balancer requires f > 1");
  DLB_REQUIRE(opts.params.delta >= 1, "delta must be >= 1");
  DLB_REQUIRE(opts.plan.journal_interval >= 1,
              "journal interval must be >= 1");
  for (const CrashEvent& c : opts.plan.crashes)
    DLB_REQUIRE(c.rank >= 0 && c.rank < n, "crash rank out of range");

  SocketRunResult res;
  res.dir = ProcessGroup::make_rendezvous_dir();
  res.exit_codes.assign(static_cast<std::size_t>(n), 0);
  res.killed.assign(static_cast<std::size_t>(n), 0);
  res.restarted.assign(static_cast<std::size_t>(n), 0);
  res.recovered_loads.assign(static_cast<std::size_t>(n), 0);

  ProcessGroup group = ProcessGroup::spawn(n, [&](int rank) {
    return child_rank(rank, trace, opts, res.dir);
  });
  DLB_ENSURE(group.wait_all(opts.run_timeout),
             "socket run timed out (rendezvous dir kept for post-mortem)");

  bool unexpected = false;
  for (int r = 0; r < n; ++r) {
    const auto s = static_cast<std::size_t>(r);
    if (group.exited(r)) {
      res.exit_codes[s] = group.exit_code(r);
      if (res.exit_codes[s] != 0) unexpected = true;
    } else {
      res.killed[s] = 1;
      res.exit_codes[s] = -group.term_signal(r);
    }
  }

  // Restart: re-fork each killed rank; the fresh process replays the
  // durable journal and publishes what it recovered.
  if (opts.restart_dead) {
    bool any = false;
    for (int r = 0; r < n; ++r) {
      if (!res.killed[static_cast<std::size_t>(r)]) continue;
      group.respawn(r, [&](int rank) {
        const JournalRecovery rec =
            recover_journal(journal_path(res.dir, rank));
        if (!rec.valid) return 3;
        write_recovered(res.dir, rank, rec);
        return 0;
      });
      res.restarted[static_cast<std::size_t>(r)] = 1;
      any = true;
    }
    if (any)
      DLB_ENSURE(group.wait_all(opts.run_timeout),
                 "journal-replay restart timed out");
    for (int r = 0; r < n; ++r) {
      const auto s = static_cast<std::size_t>(r);
      if (!res.restarted[s]) continue;
      if (const auto load = read_recovered_load(res.dir, r))
        res.recovered_loads[s] = *load;
      else
        unexpected = true;
    }
  }

  // Assemble the machine-wide report: report files for clean ranks,
  // journal recovery for killed ones — the same ledger the in-process
  // runner builds from shared memory.
  SpmdReport& report = res.report;
  report.final_loads.assign(static_cast<std::size_t>(n), 0);
  bool first_live = true;
  std::int64_t live_total = 0;
  int live_ranks = 0;
  std::int64_t declared_total = 0;
  for (int r = 0; r < n; ++r) {
    const auto s = static_cast<std::size_t>(r);
    // Cumulative generated/consumed always come from the journal: they
    // are exact for clean ranks (final line) and crash-exact for dead
    // ones (deaths happen at tick, before the step mutates anything).
    const JournalRecovery rec = recover_journal(journal_path(res.dir, r));
    if (rec.valid) {
      report.generated += rec.generated;
      report.consumed += rec.consumed;
    }
    if (res.killed[s]) {
      report.final_loads[s] = rec.valid ? rec.committed_load : 0;
      report.crash_lost += rec.valid ? rec.crash_loss() : 0;
      declared_total += rec.valid ? rec.declared_lost : 0;
      ++report.ranks_dead;
    } else {
      const RankReport rep = read_report(res.dir, r);
      if (!rep.valid) {
        unexpected = true;
        continue;
      }
      report.final_loads[s] = rep.load;
      declared_total += rep.declared;
      report.rounds_initiated += rep.ops;
      report.packets_shipped += rep.moved;
      report.recv_timeouts += rep.timeouts;
      report.degraded_rounds = std::max(report.degraded_rounds, rep.degraded);
      report.messages_dropped += rep.dropped;
      report.messages_duplicated += rep.duplicated;
      report.messages_delayed += rep.delayed;
      res.transport_retries += rep.retries;
      const std::int64_t l = rep.load;
      report.min_live_load = first_live ? l : std::min(report.min_live_load, l);
      report.max_live_load = first_live ? l : std::max(report.max_live_load, l);
      first_live = false;
      live_total += l;
      ++live_ranks;
    }
    report.total_load += report.final_loads[s];
  }
  report.transfer_lost = declared_total;
  report.conserved =
      report.total_load == report.generated - report.consumed -
                               report.transfer_lost - report.crash_lost;
  if (live_ranks > 0 && live_total > 0) {
    const double avg =
        static_cast<double>(live_total) / static_cast<double>(live_ranks);
    report.max_over_avg = static_cast<double>(report.max_live_load) / avg;
  }

  // Fold the per-rank observability exports into one machine view:
  // metrics merged twice (once under a "rank<r>." prefix, once into
  // the unprefixed aggregate), traces stitched into a single Perfetto
  // file with per-rank process tracks and cross-rank flow arcs.
  if (obs_enabled(opts)) {
    obs::MetricsRegistry merged;
    obs::TraceMerger merger;
    for (int r = 0; r < n; ++r) {
      // A rank killed before its first flush leaves no files; the
      // survivors' view still merges.
      std::ifstream in(metrics_path(res.dir, r));
      if (in.is_open()) {
        std::stringstream buf;
        buf << in.rdbuf();
        std::istringstream per_rank(buf.str());
        obs::merge_state(per_rank, merged,
                         "rank" + std::to_string(r) + ".");
        std::istringstream aggregate(buf.str());
        obs::merge_state(aggregate, merged);
      }
      if (std::ifstream(trace_path(res.dir, r)).is_open())
        merger.add_rank_file(trace_path(res.dir, r));
    }
    res.merged_metrics = merged.snapshot();
    res.matched_flow_pairs = merger.matched_flows().size();
    if (!opts.metrics_out.empty())
      write_file_atomic(opts.metrics_out, [&](std::ostream& os) {
        res.merged_metrics.write_json(os);
      });
    if (!opts.trace_out.empty())
      write_file_atomic(opts.trace_out, [&](std::ostream& os) {
        merger.write_chrome_json(os);
      });
  }

  if (!unexpected) ProcessGroup::remove_rendezvous_dir(res.dir);
  return res;
}

}  // namespace dlb
