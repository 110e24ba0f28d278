// Shared plumbing for the figure/table reproduction binaries.
//
// Each binary regenerates one table or figure of the paper: it runs the
// experiment, prints the series/rows the paper reports, and states the
// paper's qualitative expectation next to the measured values so the
// output is self-auditing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/recorder.hpp"
#include "obs/metrics.hpp"
#include "support/cli.hpp"
#include "support/plot.hpp"
#include "support/table.hpp"

namespace dlb::bench {

/// Machine-readable benchmark output: ordered key/value rows, written as
/// {"results": [{...}, ...]} — the shape BENCH_core.json and
/// tools/perf_check.sh consume.  Values render as JSON scalars;
/// append_metrics() folds a metrics snapshot into a row so benches report
/// the same numbers the observability layer collected.
class JsonRows {
 public:
  class Row {
   public:
    Row& set(const std::string& key, const std::string& v) {
      std::string quoted(1, '"');
      quoted += obs::json_escape(v);
      quoted += '"';
      fields_.emplace_back(key, std::move(quoted));
      return *this;
    }
    Row& set(const std::string& key, const char* v) {
      return set(key, std::string(v));
    }
    Row& set(const std::string& key, double v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      // JSON has no inf/nan literals.
      fields_.emplace_back(key, v == v && v - v == 0.0 ? buf : "null");
      return *this;
    }
    Row& set(const std::string& key, std::int64_t v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Row& set(const std::string& key, std::uint64_t v) {
      fields_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Row& set(const std::string& key, std::uint32_t v) {
      return set(key, static_cast<std::uint64_t>(v));
    }

   private:
    friend class JsonRows;
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Folds every instrument whose name starts with `prefix` into `row`:
  /// counters/gauges as "<name>", histograms as "<name>.{count,mean,
  /// p50,p99}" — so e.g. run_async quiescence-wait percentiles land in
  /// the same row as the wall-clock columns.
  static void append_metrics(Row& row, const obs::MetricsSnapshot& snap,
                             const std::string& prefix) {
    for (const obs::MetricValue& m : snap.values) {
      if (m.name.rfind(prefix, 0) != 0) continue;
      if (m.kind == obs::MetricValue::Kind::Histogram) {
        row.set(m.name + ".count", m.count)
            .set(m.name + ".mean", m.mean)
            .set(m.name + ".p50", m.p50)
            .set(m.name + ".p99", m.p99)
            .set(m.name + ".p999", m.p999);
      } else {
        row.set(m.name, static_cast<std::int64_t>(m.value));
      }
    }
  }

  void write(std::ostream& os) const {
    os << "{\"results\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      os << (r == 0 ? "\n  {" : ",\n  {");
      const auto& fields = rows_[r].fields_;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i != 0) os << ", ";
        os << '"' << obs::json_escape(fields[i].first)
           << "\": " << fields[i].second;
      }
      os << '}';
    }
    os << "\n]}\n";
  }

  bool write_file(const std::string& path) const {
    std::ofstream os(path);
    if (!os.good()) {
      std::cerr << "cannot write " << path << "\n";
      return false;
    }
    write(os);
    return os.good();
  }

 private:
  std::deque<Row> rows_;  // deque: row() hands out stable references
};

/// Prints the standard header every reproduction binary starts with.
inline void print_header(const std::string& experiment,
                         const std::string& paper_claim) {
  std::cout << "== " << experiment << " ==\n"
            << "paper: Luling & Monien, SPAA'93 — " << paper_claim << "\n\n";
}

void maybe_write_csv(const TextTable& table, const CliOptions& opts,
                     const std::string& name);

/// Figures 7/8 series printer: avg / min / max load per step, thinned to
/// every `stride` steps.  When `opts`/`csv_name` are given, the *full*
/// (unthinned) series is also written as CSV.
inline void print_series(const LoadSeriesRecorder& recorder,
                         std::uint32_t stride, const std::string& label,
                         const CliOptions* opts = nullptr,
                         const std::string& csv_name = "") {
  std::cout << "-- " << label << " --\n";
  TextTable table({"step", "avg load", "min load", "max load"});
  for (std::uint32_t t = 0; t < recorder.series().steps(); t += stride) {
    table.row()
        .cell(static_cast<std::size_t>(t + 1))
        .cell(recorder.series().mean(t), 2)
        .cell(recorder.series().min(t), 0)
        .cell(recorder.series().max(t), 0);
  }
  const std::uint32_t last =
      static_cast<std::uint32_t>(recorder.series().steps()) - 1;
  if (last % stride != 0) {
    table.row()
        .cell(static_cast<std::size_t>(last + 1))
        .cell(recorder.series().mean(last), 2)
        .cell(recorder.series().min(last), 0)
        .cell(recorder.series().max(last), 0);
  }
  table.print(std::cout);
  std::cout << '\n';
  if (opts != nullptr && !csv_name.empty()) {
    TextTable full({"step", "avg", "min", "max"});
    for (std::uint32_t t = 0; t < recorder.series().steps(); ++t) {
      full.row()
          .cell(static_cast<std::size_t>(t + 1))
          .cell(recorder.series().mean(t), 4)
          .cell(recorder.series().min(t), 0)
          .cell(recorder.series().max(t), 0);
    }
    maybe_write_csv(full, *opts, csv_name);
  }
}

/// ASCII rendering of the avg/min/max envelope — the visual shape of
/// Figures 7/8.
inline void plot_series(const LoadSeriesRecorder& recorder,
                        const std::string& label) {
  PlotSeries avg{"avg", '*', {}};
  PlotSeries lo{"min", '.', {}};
  PlotSeries hi{"max", '^', {}};
  for (std::uint32_t t = 0; t < recorder.series().steps(); ++t) {
    avg.values.push_back(recorder.series().mean(t));
    lo.values.push_back(recorder.series().min(t));
    hi.values.push_back(recorder.series().max(t));
  }
  PlotOptions opts;
  opts.y_label = "load (" + label + ")";
  render_plot(std::cout, {lo, hi, avg}, opts);
  std::cout << '\n';
}

/// The paper's §7 experiment setup (64 processors, 500 steps, 100 runs)
/// with CLI overrides.
inline CliOptions paper_options() {
  CliOptions opts;
  opts.add_int("processors", 64, "network size n")
      .add_int("steps", 500, "global time steps")
      .add_int("runs", 100, "independent runs per configuration")
      .add_int("seed", 1993, "master seed")
      .add_string("csv_dir", "", "also write each table as CSV into this "
                                 "directory");
  return opts;
}

/// Writes `table` as <csv_dir>/<name>.csv when --csv_dir was given.
inline void maybe_write_csv(const TextTable& table, const CliOptions& opts,
                            const std::string& name) {
  const std::string& dir = opts.get_string("csv_dir");
  if (dir.empty()) return;
  const std::string path = dir + "/" + name + ".csv";
  std::ofstream os(path);
  if (!os.good()) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  table.write_csv(os);
  std::cout << "(csv written to " << path << ")\n";
}

inline ExperimentSpec spec_from(const CliOptions& opts) {
  ExperimentSpec spec;
  spec.processors = static_cast<std::uint32_t>(opts.get_int("processors"));
  spec.horizon = static_cast<std::uint32_t>(opts.get_int("steps"));
  spec.runs = static_cast<std::uint32_t>(opts.get_int("runs"));
  spec.seed = static_cast<std::uint64_t>(opts.get_int("seed"));
  return spec;
}

}  // namespace dlb::bench
