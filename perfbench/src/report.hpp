// Metric collection and the benchmark's output format.
//
// Every metric is printed once as a human-readable line, then the run's
// provenance block, then the one-line JSON result the benchmark contract
// requires as the last line of standard output.  Timings keep their
// samples so the provenance can state repetitions and quartiles.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

/// Median of `v` (0 when empty).  Takes a copy: callers keep the samples.
double median(std::vector<double> v);

/// First and third quartile with Python's statistics.quantiles(n=4)
/// "exclusive" convention, so the provenance matches how spreads are
/// judged.  Both 0 when fewer than two samples.
void quartiles(std::vector<double> v, double& q1, double& q3);

/// Shortest decimal string that reads back as exactly `v`.
std::string format_number(double v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::vector<double> samples;  // timings only: what `value` summarizes
};

struct Provenance {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string scale;
  std::string commit;
  // Pinned engine shape (async-det results depend on both).
  std::uint32_t async_shards = 0;
  std::uint32_t async_epoch_steps = 0;
  int socket_ranks = 0;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// A timing: the reported value is the median of `samples`.
  void add_timing(const std::string& name, std::vector<double> samples,
                  const std::string& unit);
  /// A timing whose value summarizes `samples` some other way.
  void add_timing(const std::string& name, double value,
                  std::vector<double> samples, const std::string& unit);

  /// Records a failed correctness check; the result then reads
  /// correct=false and the process exits non-zero.
  void fail(const std::string& what);
  bool ok() const { return failures_.empty(); }

  void count_attempt(std::uint64_t n = 1) { attempted_ += n; }

  /// Metric lines, provenance, then the JSON result line (last).
  void print(std::ostream& os, const Provenance& prov) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
};

}  // namespace perfbench
