#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

namespace flexgraph {
namespace obs {

namespace {

uint64_t DoubleBits(double v) { return std::bit_cast<uint64_t>(v); }
double BitsDouble(uint64_t bits) { return std::bit_cast<double>(bits); }

// CAS-accumulate into an atomic double-as-bits cell.
void AtomicDoubleAdd(std::atomic<uint64_t>& cell, double delta) {
  uint64_t expected = cell.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t desired = DoubleBits(BitsDouble(expected) + delta);
    if (cell.compare_exchange_weak(expected, desired, std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicDoubleMin(std::atomic<uint64_t>& cell, double v) {
  uint64_t expected = cell.load(std::memory_order_relaxed);
  while (v < BitsDouble(expected)) {
    if (cell.compare_exchange_weak(expected, DoubleBits(v), std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicDoubleMax(std::atomic<uint64_t>& cell, double v) {
  uint64_t expected = cell.load(std::memory_order_relaxed);
  while (v > BitsDouble(expected)) {
    if (cell.compare_exchange_weak(expected, DoubleBits(v), std::memory_order_relaxed)) {
      return;
    }
  }
}

void JsonEscape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

// JSON has no Inf/NaN literals; clamp them to null-safe zeros.
void JsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

}  // namespace

void Gauge::Add(double delta) { AtomicDoubleAdd(bits_, delta); }
uint64_t Gauge::Encode(double v) { return DoubleBits(v); }
double Gauge::Decode(uint64_t bits) { return BitsDouble(bits); }

Histogram::Histogram()
    : min_bits_(DoubleBits(std::numeric_limits<double>::infinity())),
      max_bits_(DoubleBits(-std::numeric_limits<double>::infinity())) {}

int Histogram::BucketIndex(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    return 0;  // underflow bucket also swallows 0, negatives, NaN
  }
  const double lg = std::log2(v) * kSubBucketsPerOctave;
  const double lo = static_cast<double>(kMinExponent) * kSubBucketsPerOctave;
  const double hi = static_cast<double>(kMaxExponent) * kSubBucketsPerOctave;
  if (lg < lo) {
    return 0;
  }
  if (lg >= hi) {
    return kNumBuckets - 1;
  }
  return 1 + static_cast<int>(std::floor(lg - lo));
}

double Histogram::BucketValue(int index) {
  if (index <= 0) {
    return 0.0;
  }
  if (index >= kNumBuckets - 1) {
    return std::exp2(static_cast<double>(kMaxExponent));
  }
  // Geometric mean of [2^(e + k/8), 2^(e + (k+1)/8)).
  const double lg = static_cast<double>(kMinExponent) +
                    (static_cast<double>(index - 1) + 0.5) /
                        static_cast<double>(kSubBucketsPerOctave);
  return std::exp2(lg);
}

void Histogram::Observe(double v) {
  buckets_[static_cast<std::size_t>(BucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicDoubleAdd(sum_bits_, v);
  AtomicDoubleMin(min_bits_, v);
  AtomicDoubleMax(max_bits_, v);
}

void Histogram::ResetForTest() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  min_bits_.store(DoubleBits(std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(DoubleBits(-std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
}

Histogram::Stats Histogram::Snapshot() const {
  Stats stats;
  std::array<uint64_t, kNumBuckets> counts;
  uint64_t total = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    counts[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    total += counts[static_cast<std::size_t>(i)];
  }
  stats.count = total;
  stats.sum = BitsDouble(sum_bits_.load(std::memory_order_relaxed));
  if (total == 0) {
    return stats;
  }
  stats.min = BitsDouble(min_bits_.load(std::memory_order_relaxed));
  stats.max = BitsDouble(max_bits_.load(std::memory_order_relaxed));

  const auto percentile = [&](double q) {
    // Rank of the q-th percentile sample (nearest-rank on the bucket CDF).
    // A bucket's representative value can lie outside the observed range
    // (one sample sits anywhere in its bucket), so clamp to [min, max]:
    // every quantile of real samples lies inside it. (Only NaN samples
    // leave min > max; those are returned unclamped.)
    const uint64_t rank =
        static_cast<uint64_t>(q * static_cast<double>(total - 1));
    uint64_t seen = 0;
    int bucket = kNumBuckets - 1;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += counts[static_cast<std::size_t>(i)];
      if (seen > rank) {
        bucket = i;
        break;
      }
    }
    const double value = BucketValue(bucket);
    return stats.min <= stats.max ? std::clamp(value, stats.min, stats.max) : value;
  };
  stats.p50 = percentile(0.50);
  stats.p95 = percentile(0.95);
  stats.p99 = percentile(0.99);
  return stats;
}

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    os << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(os, name);
    os << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    os << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(os, name);
    os << "\": ";
    JsonNumber(os, value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "\n" : ",\n") << "    \"";
    JsonEscape(os, name);
    os << "\": {\"count\": " << h.count << ", \"sum\": ";
    JsonNumber(os, h.sum);
    os << ", \"min\": ";
    JsonNumber(os, h.min);
    os << ", \"max\": ";
    JsonNumber(os, h.max);
    os << ", \"p50\": ";
    JsonNumber(os, h.p50);
    os << ", \"p95\": ";
    JsonNumber(os, h.p95);
    os << ", \"p99\": ";
    JsonNumber(os, h.p99);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricsSnapshot::WriteCsv(std::ostream& os) const {
  os << "kind,name,count,sum,min,max,p50,p95,p99\n";
  for (const auto& [name, value] : counters) {
    os << "counter," << name << ",," << value << ",,,,,\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge," << name << ",," << value << ",,,,,\n";
  }
  for (const auto& [name, h] : histograms) {
    os << "histogram," << name << "," << h.count << "," << h.sum << "," << h.min
       << "," << h.max << "," << h.p50 << "," << h.p95 << "," << h.p99 << "\n";
  }
}

MetricRegistry& MetricRegistry::Get() {
  // Deliberately leaked: worker threads (e.g. the global thread pool) may
  // report metrics during static destruction; a function-local static object
  // could be destroyed first.
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

Counter& MetricRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace(name, hist->Snapshot());
  }
  return snap;
}

void MetricRegistry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) {
    counter->ResetForTest();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->ResetForTest();
  }
  for (auto& [name, hist] : histograms_) {
    hist->ResetForTest();
  }
}

bool MetricRegistry::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteJson(out);
  return static_cast<bool>(out);
}

bool MetricRegistry::WriteCsvFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteCsv(out);
  return static_cast<bool>(out);
}

}  // namespace obs
}  // namespace flexgraph
