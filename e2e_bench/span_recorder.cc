#include "span_recorder.h"

#include <cstdio>

#include "src/obs/clock.h"
#include "src/util/check.h"

namespace e2e {

int SpanRecorder::Begin(std::string name, int epoch) {
  SpanRecord span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.epoch = epoch;
  span.start_ns = flexgraph::obs::MonotonicNowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  FLEX_CHECK_MSG(!open_.empty() && open_.back() == id, "spans must close innermost-first");
  open_.pop_back();
  SpanRecord& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = flexgraph::obs::MonotonicNowNs();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
  }
}

std::map<int, std::map<std::string, double>> SpanRecorder::SelfSecondsByEpoch() const {
  std::map<int, std::map<std::string, double>> out;
  for (const SpanRecord& span : spans_) {
    out[span.epoch][span.name] += span.self_seconds();
  }
  return out;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns) {
      out.push_back(span.seconds());
    }
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const SpanRecord& span : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"epoch\": %d, \"self_ns\": %lld}\n",
                 span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent, span.epoch,
                 static_cast<long long>(span.end_ns - span.start_ns - span.child_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
