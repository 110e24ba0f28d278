#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <thread>

#include "obs/metrics.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

void quartiles(std::vector<double> v, double& q1, double& q3) {
  q1 = q3 = 0.0;
  const std::size_t n = v.size();
  if (n < 2) return;
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): position j*(n+1)/4, 1-based,
  // clamped to the sample range.
  const auto at = [&](double pos) {
    pos = std::clamp(pos, 1.0, static_cast<double>(n));
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(lo);
    const double a = v[lo - 1];
    const double b = v[std::min(lo, n - 1)];
    return a + (b - a) * frac;
  };
  q1 = at(static_cast<double>(n + 1) / 4.0);
  q3 = at(3.0 * static_cast<double>(n + 1) / 4.0);
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit, {}});
}

void Report::add_timing(const std::string& name, std::vector<double> samples,
                        const std::string& unit) {
  const double value = median(samples);
  metrics_.push_back(Metric{name, value, unit, std::move(samples)});
}

void Report::add_timing(const std::string& name, double value,
                        std::vector<double> samples, const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit, std::move(samples)});
}

void Report::fail(const std::string& what) { failures_.push_back(what); }

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += dlb::obs::json_escape(s);
  out += '"';
  return out;
}

}  // namespace

void Report::print(std::ostream& os, const Provenance& prov) const {
  for (const Metric& m : metrics_) {
    os << "metric " << m.name << " = " << format_number(m.value) << " "
       << m.unit;
    if (!m.samples.empty()) os << "  (median of " << m.samples.size() << ")";
    os << "\n";
  }
  for (const std::string& f : failures_) os << "check FAILED: " << f << "\n";

  os << "provenance {\"workload\": " << quoted(prov.workload)
     << ", \"seed\": " << prov.seed
     << ", \"seconds\": " << format_number(prov.seconds)
     << ", \"trace\": " << prov.trace << ", \"scale\": " << quoted(prov.scale)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << quoted(cpu_model())
     << ", \"compiler\": " << quoted(std::string("g++ ") + __VERSION__)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"commit\": " << quoted(prov.commit)
     << ", \"async_shards\": " << prov.async_shards
     << ", \"async_epoch_steps\": " << prov.async_epoch_steps
     << ", \"socket_ranks\": " << prov.socket_ranks << ", \"timings\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (m.samples.empty()) continue;
    double q1 = 0.0;
    double q3 = 0.0;
    quartiles(m.samples, q1, q3);
    os << (first ? "" : ", ") << quoted(m.name)
       << ": {\"repetitions\": " << m.samples.size()
       << ", \"q1\": " << format_number(q1)
       << ", \"median\": " << format_number(median(m.samples))
       << ", \"q3\": " << format_number(q3)
       << ", \"value\": " << format_number(m.value) << "}";
    first = false;
  }
  os << "}}\n";

  os << "{\"correct\": " << (ok() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
     << ", \"failed\": " << failures_.size() << ", \"metrics\": {";
  first = true;
  for (const Metric& m : metrics_) {
    os << (first ? "" : ", ") << quoted(m.name)
       << ": {\"value\": " << format_number(m.value)
       << ", \"unit\": " << quoted(m.unit) << "}";
    first = false;
  }
  os << "}}" << std::endl;
}

}  // namespace perfbench
