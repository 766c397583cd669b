// Tests for the observability subsystem: histogram percentile accuracy under
// the log-bucket scheme, counter/gauge exactness under concurrency, Chrome
// trace well-formedness with balanced begin/end pairs, and snapshot
// isolation.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/trace.h"

namespace flexgraph {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator. Accepts exactly the JSON grammar
// (objects, arrays, strings, numbers, true/false/null); no extensions. Used
// to assert the trace and metrics exports are loadable by a real parser.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
        const char esc = s_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= s_.size()) {
            return false;
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') {
      ++pos_;
    }
    while (std::isdigit(Peek())) {
      ++pos_;
    }
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(Peek())) {
        ++pos_;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      while (std::isdigit(Peek())) {
        ++pos_;
      }
    }
    return pos_ > start && std::isdigit(s_[pos_ - 1]);
  }

  bool Literal(const char* lit) {
    for (; *lit != '\0'; ++lit, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *lit) {
        return false;
      }
    }
    return true;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Extracts the integer value of `"key": N` starting at `from` in an event
// line; returns -1 when absent.
int64_t FieldInt(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return -1;
  }
  return std::atoll(line.c_str() + at + needle.size());
}

std::string FieldStr(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) {
    return {};
  }
  const std::size_t start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketRoundTripWithinResolution) {
  // The representative value of a bucket must be within the bucket's relative
  // width (2^(1/8) - 1 ≈ 9%) of any value that maps into it.
  for (double v : {1e-9, 3.7e-6, 0.004, 0.1, 1.0, 2.5, 17.0, 999.0, 1e6, 7.3e8}) {
    const int idx = Histogram::BucketIndex(v);
    const double rep = Histogram::BucketValue(idx);
    EXPECT_NEAR(rep / v, 1.0, 0.1) << "value " << v << " bucket " << idx;
  }
}

TEST(HistogramTest, PercentilesOfUniformStream) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Observe(static_cast<double>(i));
  }
  const Histogram::Stats s = h.Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_NEAR(s.sum, 500500.0, 1e-6);
  // Log-bucket resolution is ~9%; allow 12% to absorb the nearest-rank step.
  EXPECT_NEAR(s.p50 / 500.0, 1.0, 0.12);
  EXPECT_NEAR(s.p95 / 950.0, 1.0, 0.12);
  EXPECT_NEAR(s.p99 / 990.0, 1.0, 0.12);
}

TEST(HistogramTest, PercentilesAcrossOctaves) {
  // 90 small values and 10 large ones: p50 must sit in the small cluster,
  // p95/p99 in the large one — the shape that stage-time histograms have when
  // one epoch stalls.
  Histogram h;
  for (int i = 0; i < 90; ++i) {
    h.Observe(0.001);
  }
  for (int i = 0; i < 10; ++i) {
    h.Observe(1.0);
  }
  const Histogram::Stats s = h.Snapshot();
  EXPECT_NEAR(s.p50 / 0.001, 1.0, 0.12);
  EXPECT_NEAR(s.p95 / 1.0, 1.0, 0.12);
  EXPECT_NEAR(s.p99 / 1.0, 1.0, 0.12);
}

TEST(HistogramTest, QuantilesStayInsideMinMax) {
  // A bucket's representative value may lie outside the observed range: one
  // sample of 4.125 lands in a bucket whose geometric mean is ~4.18. Every
  // quantile of a single value (or of identical values) is that value.
  for (double v : {4.125, 0.003, 1.0, 7.3e8}) {
    for (int n : {1, 5}) {
      Histogram h;
      for (int i = 0; i < n; ++i) {
        h.Observe(v);
      }
      const Histogram::Stats s = h.Snapshot();
      EXPECT_EQ(s.p50, v) << "value " << v << " count " << n;
      EXPECT_EQ(s.p95, v) << "value " << v << " count " << n;
      EXPECT_EQ(s.p99, v) << "value " << v << " count " << n;
    }
  }
  // Mixed samples: quantiles never leave [min, max].
  Histogram h;
  for (double v : {4.125, 4.126, 4.127}) {
    h.Observe(v);
  }
  const Histogram::Stats s = h.Snapshot();
  for (double q : {s.p50, s.p95, s.p99}) {
    EXPECT_GE(q, s.min);
    EXPECT_LE(q, s.max);
  }
}

TEST(HistogramTest, UnderflowAndOverflowDoNotCrash) {
  Histogram h;
  h.Observe(0.0);
  h.Observe(-5.0);
  h.Observe(1e30);
  const Histogram::Stats s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, -5.0);
  EXPECT_DOUBLE_EQ(s.max, 1e30);
}

// ---------------------------------------------------------------------------
// Concurrency exactness

TEST(ConcurrencyTest, CounterIsExactUnderContention) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) {
        c.Add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.value(), static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(ConcurrencyTest, GaugeAddIsExactUnderContention) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kAdds; ++i) {
        g.Add(0.5);  // exactly representable: the CAS loop must not lose adds
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kAdds * 0.5);
}

TEST(ConcurrencyTest, HistogramCountIsExactUnderContention) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kObs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObs; ++i) {
        h.Observe(0.001 * (t + 1));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const Histogram::Stats s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kObs);
  EXPECT_NEAR(s.sum, 0.001 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8) * kObs, 1e-9);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, SameNameReturnsSameMetric) {
  MetricRegistry& reg = MetricRegistry::Get();
  Counter& a = reg.GetCounter("obs_test.same_name");
  Counter& b = reg.GetCounter("obs_test.same_name");
  EXPECT_EQ(&a, &b);
  Histogram& ha = reg.GetHistogram("obs_test.same_hist");
  Histogram& hb = reg.GetHistogram("obs_test.same_hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(RegistryTest, SnapshotIsIsolatedFromLaterMutation) {
  MetricRegistry& reg = MetricRegistry::Get();
  Counter& c = reg.GetCounter("obs_test.snapshot_counter");
  c.ResetForTest();
  c.Add(5);
  Gauge& g = reg.GetGauge("obs_test.snapshot_gauge");
  g.Set(2.5);

  const MetricsSnapshot snap = reg.Snapshot();
  c.Add(100);
  g.Set(-1.0);

  EXPECT_EQ(snap.counters.at("obs_test.snapshot_counter"), 5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("obs_test.snapshot_gauge"), 2.5);
  // The live metrics did move.
  EXPECT_EQ(c.value(), 105);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(RegistryTest, MetricsJsonIsValid) {
  MetricRegistry& reg = MetricRegistry::Get();
  reg.GetCounter("obs_test.json \"quoted\\name").Add(1);  // must be escaped
  reg.GetHistogram("obs_test.json_hist").Observe(0.25);
  std::ostringstream os;
  reg.WriteJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(RegistryTest, ResetZeroesInPlace) {
  MetricRegistry& reg = MetricRegistry::Get();
  Counter& c = reg.GetCounter("obs_test.reset_counter");
  c.Add(7);
  Histogram& h = reg.GetHistogram("obs_test.reset_hist");
  h.Observe(1.0);
  reg.Reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.Snapshot().count, 0u);
  // References stay valid and usable after Reset.
  c.Add(2);
  EXPECT_EQ(c.value(), 2);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable(false);
  tracer.Clear();
  {
    FLEX_TRACE_SPAN("obs_test.disabled");
    FLEX_TRACE_SPAN("obs_test.disabled_args", {{"k", 1.0}});
  }
  EXPECT_EQ(tracer.EventCountForTest(), 0u);
}

TEST(TracerTest, TraceIsValidJsonWithBalancedSpans) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.Enable(true);
  {
    FLEX_TRACE_SPAN("outer", {{"layer", 2.0}});
    {
      FLEX_TRACE_SPAN("inner");
    }
  }
  // Spans from a second thread land in that thread's own buffer/tid.
  std::thread other([] {
    FLEX_TRACE_SPAN("other_thread");
  });
  other.join();
  tracer.EmitModeled(3, "worker 1 network", "comm.raw_in", 0.001, 0.002,
                     {{"bytes", 4096.0}});
  tracer.Enable(false);

  std::ostringstream os;
  tracer.WriteChromeTrace(os);
  const std::string json = os.str();
  ASSERT_TRUE(JsonValidator(json).Valid()) << json;

  // One event object per line between the wrapper lines; check B/E balance
  // per tid and that nesting depth never goes negative.
  std::istringstream lines(json);
  std::string line;
  std::map<int64_t, int64_t> depth;
  int begins = 0, ends = 0, modeled = 0;
  bool saw_outer = false, saw_modeled_name = false;
  while (std::getline(lines, line)) {
    const std::string ph = FieldStr(line, "ph");
    if (ph == "B") {
      ++begins;
      ++depth[FieldInt(line, "tid")];
      if (FieldStr(line, "name") == "outer") {
        saw_outer = true;
        EXPECT_NE(line.find("\"layer\": 2"), std::string::npos) << line;
      }
    } else if (ph == "E") {
      ++ends;
      const int64_t tid = FieldInt(line, "tid");
      --depth[tid];
      EXPECT_GE(depth[tid], 0) << "end before begin on tid " << tid;
    } else if (ph == "X") {
      ++modeled;
      EXPECT_EQ(FieldInt(line, "tid"), 3);
      if (FieldStr(line, "name") == "comm.raw_in") {
        saw_modeled_name = true;
      }
    }
  }
  EXPECT_EQ(begins, 3);
  EXPECT_EQ(ends, 3);
  EXPECT_EQ(modeled, 1);
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_modeled_name);
  for (const auto& [tid, d] : depth) {
    EXPECT_EQ(d, 0) << "unbalanced spans on tid " << tid;
  }
  // Track-naming metadata for the modeled track made it out.
  EXPECT_NE(json.find("worker 1 network"), std::string::npos);
  tracer.Clear();
}

TEST(TracerTest, EnableFlipMidSpanStaysBalanced) {
  Tracer& tracer = Tracer::Get();
  tracer.Clear();
  tracer.Enable(true);
  {
    FLEX_TRACE_SPAN("latched");
    tracer.Enable(false);  // the open span latched `enabled` at construction
  }
  // begin+end both recorded despite the mid-scope disable.
  EXPECT_EQ(tracer.EventCountForTest(), 2u);
  tracer.Clear();
}

// ---------------------------------------------------------------------------
// Macros

TEST(MacroTest, ScopedSecondsFeedsHistogramAndSink) {
  MetricRegistry& reg = MetricRegistry::Get();
  Histogram& h = reg.GetHistogram("obs_test.scoped_seconds");
  h.ResetForTest();
  double sink = 0.0;
  {
    FLEX_SCOPED_SECONDS("obs_test.scoped_seconds", &sink);
  }
  EXPECT_EQ(h.Snapshot().count, 1u);
  EXPECT_GE(sink, 0.0);
  EXPECT_NEAR(sink, h.Snapshot().sum, 1e-12);
}

TEST(MacroTest, CounterAndGaugeMacros) {
  MetricRegistry& reg = MetricRegistry::Get();
  reg.GetCounter("obs_test.macro_counter").ResetForTest();
  FLEX_COUNTER_ADD("obs_test.macro_counter", 3);
  FLEX_COUNTER_ADD("obs_test.macro_counter", 4);
  EXPECT_EQ(reg.GetCounter("obs_test.macro_counter").value(), 7);
  FLEX_GAUGE_SET("obs_test.macro_gauge", 1.25);
  EXPECT_DOUBLE_EQ(reg.GetGauge("obs_test.macro_gauge").value(), 1.25);
}

}  // namespace
}  // namespace obs
}  // namespace flexgraph
