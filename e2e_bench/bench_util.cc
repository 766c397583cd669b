#include "bench_util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/exec/cpu_features.h"
#include "src/exec/simd.h"
#include "src/obs/clock.h"

namespace e2e {

double NowSeconds() { return flexgraph::obs::MonotonicNowSeconds(); }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

std::string SampleSummary(const std::vector<double>& samples) {
  if (samples.empty()) {
    return "n=0";
  }
  double sum = 0.0;
  for (double v : samples) {
    sum += v;
  }
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "n=%zu p10=%.6f p25=%.6f p50=%.6f p90=%.6f min=%.6f max=%.6f mean=%.6f p75=%.6f",
                samples.size(), Quantile(samples, 0.1), Quantile(samples, 0.25), Median(samples),
                Quantile(samples, 0.9),
                *std::min_element(samples.begin(), samples.end()),
                *std::max_element(samples.begin(), samples.end()),
                sum / static_cast<double>(samples.size()), Quantile(samples, 0.75));
  return buf;
}

double PeakRssMb() {
  struct rusage self{};
  struct rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::string EnvironmentLine(const std::string& workload, uint64_t seed) {
  namespace simd = flexgraph::simd;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "env workload=%s seed=%llu isa=%s cpu_max_isa=%s nproc=%ld",
                workload.c_str(), static_cast<unsigned long long>(seed),
                simd::IsaName(simd::ActiveIsa()), simd::IsaName(simd::DetectIsa()),
                sysconf(_SC_NPROCESSORS_ONLN));
  return buf;
}

void ResultJson::Add(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    all_finite_ = false;
    value = 0.0;
  }
  entries_.push_back({name, value, unit});
}

std::string ResultJson::Render(bool correct, int64_t attempted, int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    // %.17g keeps every digit of the double as measured.
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    if (i > 0) {
      out += ", ";
    }
    out += "\"" + entries_[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
