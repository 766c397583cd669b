// Helpers shared by the end-to-end benchmark driver and its parity test:
// the clock, order statistics over raw samples, peak RSS, and the one-line
// JSON result the benchmark prints last.
#ifndef E2E_BENCH_BENCH_UTIL_H_
#define E2E_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// Monotonic wall clock in seconds (the library's own clock source).
double NowSeconds();

// Order statistics over raw samples — never over the log-bucket
// obs::Histogram, whose quantiles snap to bucket midpoints. Quantile uses
// linear interpolation between closest ranks (q in [0, 1]); both return 0
// for an empty sample.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

// "n=12 p50=0.0812 p90=0.0857 min=0.0801 max=0.0902" for the info lines.
std::string SampleSummary(const std::vector<double>& samples);

// Peak resident set in MiB: the larger of this process's own peak and its
// largest reaped child's (getrusage RUSAGE_SELF / RUSAGE_CHILDREN).
double PeakRssMb();

// Provenance printed beside every result: kernel ISA, nproc, seed.
std::string EnvironmentLine(const std::string& workload, uint64_t seed);

// The benchmark's last stdout line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
class ResultJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // False when any added value is not finite (JSON has no NaN/Inf); such
  // values render as 0 and the run must be reported incorrect.
  bool all_finite() const { return all_finite_; }
  std::string Render(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  bool all_finite_ = true;
};

}  // namespace e2e

#endif  // E2E_BENCH_BENCH_UTIL_H_
