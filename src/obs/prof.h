// Kernel-level hardware profiler with roofline attribution.
//
// When profiling is on (simd::SetKernelProfiling(true), surfaced as
// `flexgraph_train --profile` / FLEXGRAPH_PROFILE=1), the SIMD dispatch table
// is swapped for a shim table that attributes every kernel invocation:
//
//   * Coarse kernels (segment_reduce, segment_reduce_ext, the four
//     instance_attention* kernels, indirect_backward, scatter_rows,
//     group_reduce, gemm_pack_b, gemm, gemm_trans_a) get a timed scope —
//     monotonic wall time plus a hardware counter read (cycles, instructions,
//     LLC-load-misses, stalled-cycles-backend) through the thread's
//     PerfCounterGroup when perf_event_open is available.
//   * Row primitives (add_row .. axpy_row) are called per edge inside the hot
//     loops; timing them would distort the run. They get work-only
//     accounting: calls, bytes, FLOPs — a few thread-local integer adds.
//   * The tensor layer's non-KernelTable hot loops (elementwise maps, row
//     softmax, row copies, zero fills) carry hand-instrumented timed scopes
//     gated on simd::KernelProfilingEnabled(), so the attribution covers the
//     whole kernel surface, not just the dispatched kernels.
//
// Byte and FLOP counts are *analytic*: derived from the kernel arguments
// (which the execution plan fixes), never measured. They are integer sums in
// a deterministic order, so they are bit-identical across runs, thread
// counts, ISA levels, and FLEXGRAPH_PERF settings — the bench regression
// gate keys on them for exactly that reason. The accounting convention:
// multiply-accumulate counts 2 FLOPs, plain add/compare/scale 1; bytes count
// each operand array touched once per element (read-modify-write outputs
// count on both sides).
//
// Aggregation follows the Tracer pattern: each thread owns a slot array
// (lock-free recording); Aggregate()/ExportMetrics() read them under
// quiescence — call after the instrumented run has finished.
//
// The roofline anchors on two probes run once at first Enable: a STREAM-style
// triad for sustainable memory bandwidth and an L1-resident multiply-add loop
// for sustainable compute. attainable_gflops = min(compute roof,
// intensity x bandwidth); roofline_fraction says how close each kernel got.
#ifndef SRC_OBS_PROF_H_
#define SRC_OBS_PROF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/obs/perf_counters.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace flexgraph {
namespace obs {

// One entry per KernelTable function pointer, in declaration order, followed
// by the hand-instrumented tensor-layer categories (the elementwise / softmax
// / row-copy / zero-fill loops that run via exec::ParallelFor outside the
// KernelTable — without them roughly a third of kernel-stage time would go
// unattributed).
enum class ProfKernel : int {
  kAddRow = 0,
  kMaxRow,
  kMinRow,
  kScaleRow,
  kAxpyRow,
  kSegmentReduce,
  kSegmentReduceExt,
  kInstanceAttention,           // MAGNN bottom + instance level, forward
  kInstanceAttentionGrad,       // its backward pass A: the score gradient
  kInstanceAttentionDw,         // pass B: the score weight's gradient
  kInstanceAttentionInputGrad,  // pass C: the input gradient's gather
  kIndirectBackward,
  kScatterRows,
  kGroupReduce,
  kGemmPackB,
  kGemm,
  kGemmTransA,
  kElementwise,  // flat map/reduce loops: add, scale, relu, hadamard, col_sum…
  kRowSoftmax,   // per-row softmax (exp counted as one FLOP, nominal)
  kRowCopy,      // pure movement: gather/concat/slice/broadcast copies
  kZeroFill,     // zero-initialized workspace tensors: write-only, no FLOPs
  kCount,
};

inline constexpr int kNumProfKernels = static_cast<int>(ProfKernel::kCount);

const char* ProfKernelName(ProfKernel k);

// Per-thread, per-kernel accumulator. Written only by the owning thread;
// read by Aggregate() under quiescence.
struct KernelSlot {
  int64_t calls = 0;
  int64_t timed_calls = 0;
  int64_t wall_ns = 0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t flops = 0;
  // Hardware counters, summed over timed calls whose perf read succeeded.
  int64_t perf_samples = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_misses = 0;
  uint64_t stalled_backend = 0;
};

namespace prof_internal {

using SlotArray = std::vector<KernelSlot>;  // always kNumProfKernels entries

// Thread-local fast path: null until the thread's slots are registered.
extern thread_local KernelSlot* t_slots;

// Slow path: allocates this thread's slot array and registers it with the
// profiler (so aggregation sees threads that have exited).
KernelSlot* RegisterThreadSlots();

}  // namespace prof_internal

inline KernelSlot* ThreadSlots() {
  KernelSlot* s = prof_internal::t_slots;
  return s != nullptr ? s : prof_internal::RegisterThreadSlots();
}

// Work-only accounting for the per-edge row primitives: a handful of
// thread-local integer adds, no clock or perf read.
inline void RecordKernelWork(ProfKernel k, int64_t bytes_read, int64_t bytes_written,
                             int64_t flops) {
  KernelSlot& slot = ThreadSlots()[static_cast<int>(k)];
  ++slot.calls;
  slot.bytes_read += bytes_read;
  slot.bytes_written += bytes_written;
  slot.flops += flops;
}

// RAII scope for the coarse kernels: records work at entry, wall time and the
// perf counter delta at exit. The SIMD shims construct it unconditionally
// (the shim table only dispatches while profiling); hand-instrumented sites
// in the tensor layer pass `enabled = simd::KernelProfilingEnabled()` so the
// unprofiled cost is one predicted branch.
class TimedKernelScope {
 public:
  TimedKernelScope(ProfKernel k, int64_t bytes_read, int64_t bytes_written, int64_t flops,
                   bool enabled = true);
  ~TimedKernelScope();

  TimedKernelScope(const TimedKernelScope&) = delete;
  TimedKernelScope& operator=(const TimedKernelScope&) = delete;

 private:
  KernelSlot* slot_;
  const PerfCounterGroup* group_;  // null when perf is unavailable
  PerfSample start_sample_;
  int64_t start_ns_;
};

// Measured machine roofs (see header comment). Zero when the probe was
// skipped (FLEXGRAPH_ROOFLINE_PROBE=off).
struct RooflineProbe {
  double mem_bw_gbps = 0.0;     // STREAM triad, best of three reps
  double compute_gflops = 0.0;  // L1-resident multiply-add, best of three
};

// Aggregated per-kernel report row.
struct KernelProfileRow {
  ProfKernel kernel = ProfKernel::kCount;
  const char* name = "";
  int64_t calls = 0;
  int64_t timed_calls = 0;
  double wall_seconds = 0.0;
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int64_t flops = 0;
  int64_t perf_samples = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_misses = 0;
  uint64_t stalled_backend = 0;

  int64_t total_bytes() const { return bytes_read + bytes_written; }
  // FLOPs per byte moved; 0 for a kernel that moved nothing.
  double intensity() const;
  // Achieved rates over wall time (0 for untimed row primitives).
  double achieved_gbps() const;
  double achieved_gflops() const;
  // Roofline ceiling for this kernel's intensity, and how close it got.
  double attainable_gflops(const RooflineProbe& roof) const;
  double roofline_fraction(const RooflineProbe& roof) const;
  // Measured LLC misses per analytic byte moved (0 when perf is unavailable
  // or the kernel moved nothing). A locality measure: x64 (the line size)
  // gives measured DRAM traffic as a fraction of the analytic bytes.
  double llc_miss_per_byte() const;
};

struct ProfilerReport {
  std::vector<KernelProfileRow> rows;  // kNumProfKernels rows, kernel order
  RooflineProbe roofline;
  bool perf_available = false;
  const char* perf_disabled_reason = nullptr;  // null when available
  // Sum of timed-kernel wall time (the coarse kernels; row primitives run
  // inside them or inside untimed glue and carry no clock).
  double timed_wall_seconds = 0.0;
};

// Process-wide profiler state. Enable/disable of the SIMD dispatch shims
// lives in the exec layer (simd::SetKernelProfiling) because obs sits below
// exec; that call forwards here for bookkeeping and the roofline probe.
class KernelProfiler {
 public:
  static KernelProfiler& Get();

  // Bookkeeping half of simd::SetKernelProfiling — do not call directly
  // unless you only want accounting from hand-instrumented scopes. Runs the
  // roofline probe on the first enable (skippable via
  // FLEXGRAPH_ROOFLINE_PROBE=off).
  void Enable(bool on);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  RooflineProbe roofline() const FLEX_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return roofline_;
  }

  // Sums every thread's slots. Requires quiescence (no kernels in flight).
  ProfilerReport Aggregate() const FLEX_EXCLUDES(mutex_);

  // Pushes the aggregate into the metrics registry as prof.* counters and
  // gauges. Counters accumulate — call once per run, after quiescence.
  void ExportMetrics() const FLEX_EXCLUDES(mutex_);

  // Emits one Chrome-trace counter track ('C' events) per active kernel with
  // cumulative bytes and FLOPs, so the tracks line up with the run's spans.
  void ExportTraceCounters() const FLEX_EXCLUDES(mutex_);

  // Zeroes every registered slot. Requires quiescence.
  void Reset() FLEX_EXCLUDES(mutex_);

  // Called by RegisterThreadSlots.
  void RegisterSlots(std::shared_ptr<prof_internal::SlotArray> slots)
      FLEX_EXCLUDES(mutex_);

 private:
  KernelProfiler() = default;

  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::vector<std::shared_ptr<prof_internal::SlotArray>> slots_ FLEX_GUARDED_BY(mutex_);
  bool probed_ FLEX_GUARDED_BY(mutex_) = false;
  RooflineProbe roofline_ FLEX_GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace flexgraph

#endif  // SRC_OBS_PROF_H_
