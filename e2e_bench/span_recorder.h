// In-memory span recorder for the benchmark's traced run. Each span keeps its
// name, start, end, parent span and the epoch it belongs to; nothing is
// written until the run ends. A span's self time is its duration minus the
// time covered by its direct children. Recording is single-threaded: spans
// wrap calls made from the driving thread, never kernel worker bodies.
#ifndef E2E_BENCH_SPAN_RECORDER_H_
#define E2E_BENCH_SPAN_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root span
  int epoch = -1;   // -1 for spans outside any epoch (probes)
  int64_t child_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double self_seconds() const {
    return static_cast<double>(end_ns - start_ns - child_ns) * 1e-9;
  }
};

class SpanRecorder {
 public:
  int Begin(std::string name, int epoch);
  void End(int id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Per epoch id, the summed self seconds of every span with that name.
  std::map<int, std::map<std::string, double>> SelfSecondsByEpoch() const;

  // Durations of every closed span named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;

  // One JSON object per line: name, start/end (ns), parent, epoch, self_ns.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span ids
};

// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int epoch)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(std::move(name), epoch) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace e2e

#endif  // E2E_BENCH_SPAN_RECORDER_H_
