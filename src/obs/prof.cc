#include "src/obs/prof.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/env.h"

namespace flexgraph {
namespace obs {

namespace {

const char* const kKernelNames[kNumProfKernels] = {
    "add_row",
    "max_row",
    "min_row",
    "scale_row",
    "axpy_row",
    "segment_reduce",
    "segment_reduce_ext",
    "instance_attention",
    "instance_attention_grad",
    "instance_attention_dw",
    "instance_attention_input_grad",
    "indirect_backward",
    "scatter_rows",
    "group_reduce",
    "gemm_pack_b",
    "gemm",
    "gemm_trans_a",
    "elementwise",
    "row_softmax",
    "row_copy",
    "zero_fill",
};

// Per-thread counter group, opened lazily the first time a timed scope runs
// on this thread; the destructor closes the fds at thread exit.
const PerfCounterGroup* ThreadPerfGroup() {
  if (!PerfCountersEnabled()) {
    return nullptr;
  }
  thread_local PerfCounterGroup group;
  return group.available() ? &group : nullptr;
}

// Forces the probe loops' results to be observable so the optimizer cannot
// delete them.
volatile float g_probe_sink = 0.0f;

RooflineProbe RunRooflineProbe() {
  RooflineProbe probe;

  // Memory roof: STREAM-style triad a = b + s*c over arrays big enough
  // (8 MiB each) that the traffic streams past the LLC. Counted traffic is
  // the classic STREAM convention: two reads + one write per element.
  {
    const std::size_t n = std::size_t{1} << 21;
    std::vector<float> a(n, 1.0f);
    std::vector<float> b(n, 2.0f);
    std::vector<float> c(n, 3.0f);
    const double bytes_per_pass = 3.0 * static_cast<double>(n) * sizeof(float);
    double best_gbps = 0.0;
    for (int rep = 0; rep < 4; ++rep) {  // rep 0 warms the pages
      const float s = 0.5f + 0.25f * static_cast<float>(rep);
      const int64_t t0 = MonotonicNowNs();
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = b[i] + s * c[i];
      }
      const int64_t t1 = MonotonicNowNs();
      g_probe_sink = g_probe_sink + a[n / 2];
      if (rep == 0 || t1 <= t0) {
        continue;
      }
      // bytes per nanosecond == GB/s.
      best_gbps = std::max(best_gbps, bytes_per_pass / static_cast<double>(t1 - t0));
    }
    probe.mem_bw_gbps = best_gbps;
  }

  // Compute roof: L1-resident multiply-add chains (2 FLOPs per element per
  // pass, the same convention the kernel accounting uses). Per-element serial
  // dependency, vector-width-many independent chains — the sustainable rate
  // of exactly the multiply-then-add (never fused) loops the determinism
  // contract allows.
  {
    constexpr std::size_t n = 2048;
    constexpr int passes = 20000;
    std::vector<float> acc(n, 1.0f);
    std::vector<float> x(n, 1.0f + 1e-6f);
    const double flops_per_rep = 2.0 * static_cast<double>(n) * passes;
    double best_gflops = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
      const int64_t t0 = MonotonicNowNs();
      for (int p = 0; p < passes; ++p) {
        const float s = 1.0f - 1e-7f * static_cast<float>(p & 15);
        for (std::size_t i = 0; i < n; ++i) {
          acc[i] = acc[i] * s + x[i];
        }
      }
      const int64_t t1 = MonotonicNowNs();
      g_probe_sink = g_probe_sink + acc[n / 2];
      std::fill(acc.begin(), acc.end(), 1.0f);
      if (rep == 0 || t1 <= t0) {
        continue;
      }
      // FLOPs per nanosecond == GFLOP/s.
      best_gflops = std::max(best_gflops, flops_per_rep / static_cast<double>(t1 - t0));
    }
    probe.compute_gflops = best_gflops;
  }

  return probe;
}

bool RooflineProbeDisabled() { return !EnvOnOff("FLEXGRAPH_ROOFLINE_PROBE", true); }

}  // namespace

const char* ProfKernelName(ProfKernel k) {
  const int i = static_cast<int>(k);
  return (i >= 0 && i < kNumProfKernels) ? kKernelNames[i] : "?";
}

namespace prof_internal {

thread_local KernelSlot* t_slots = nullptr;

KernelSlot* RegisterThreadSlots() {
  // The shared_ptr keeps the array alive past thread exit so Aggregate()
  // still sees work recorded by pool threads that have been joined.
  thread_local std::shared_ptr<SlotArray> local;
  if (!local) {
    local = std::make_shared<SlotArray>(static_cast<std::size_t>(kNumProfKernels));
    KernelProfiler::Get().RegisterSlots(local);
  }
  t_slots = local->data();
  return t_slots;
}

}  // namespace prof_internal

TimedKernelScope::TimedKernelScope(ProfKernel k, int64_t bytes_read, int64_t bytes_written,
                                   int64_t flops, bool enabled) {
  if (!enabled) {
    slot_ = nullptr;
    group_ = nullptr;
    return;
  }
  slot_ = &ThreadSlots()[static_cast<int>(k)];
  group_ = ThreadPerfGroup();
  ++slot_->calls;
  slot_->bytes_read += bytes_read;
  slot_->bytes_written += bytes_written;
  slot_->flops += flops;
  if (group_ != nullptr) {
    start_sample_ = group_->Read();
  }
  start_ns_ = MonotonicNowNs();  // last, so the perf read isn't in the window
}

TimedKernelScope::~TimedKernelScope() {
  if (slot_ == nullptr) {
    return;
  }
  const int64_t end_ns = MonotonicNowNs();
  ++slot_->timed_calls;
  slot_->wall_ns += end_ns - start_ns_;
  if (group_ != nullptr) {
    const PerfSample delta = group_->Read() - start_sample_;
    if (delta.has_cycles) {
      ++slot_->perf_samples;
      slot_->cycles += delta.cycles;
      if (delta.has_instructions) {
        slot_->instructions += delta.instructions;
      }
      if (delta.has_llc_misses) {
        slot_->llc_misses += delta.llc_misses;
      }
      if (delta.has_stalled_backend) {
        slot_->stalled_backend += delta.stalled_backend;
      }
    }
  }
}

double KernelProfileRow::intensity() const {
  const int64_t bytes = total_bytes();
  return bytes > 0 ? static_cast<double>(flops) / static_cast<double>(bytes) : 0.0;
}

double KernelProfileRow::achieved_gbps() const {
  return wall_seconds > 0.0
             ? static_cast<double>(total_bytes()) / wall_seconds * 1e-9
             : 0.0;
}

double KernelProfileRow::achieved_gflops() const {
  return wall_seconds > 0.0 ? static_cast<double>(flops) / wall_seconds * 1e-9 : 0.0;
}

double KernelProfileRow::attainable_gflops(const RooflineProbe& roof) const {
  const double mem_roof = intensity() * roof.mem_bw_gbps;
  if (roof.compute_gflops <= 0.0) {
    return mem_roof;
  }
  if (mem_roof <= 0.0) {
    return roof.compute_gflops;
  }
  return std::min(roof.compute_gflops, mem_roof);
}

double KernelProfileRow::roofline_fraction(const RooflineProbe& roof) const {
  if (wall_seconds <= 0.0) {
    return 0.0;
  }
  if (flops > 0) {
    const double roof_gflops = attainable_gflops(roof);
    return roof_gflops > 0.0 ? achieved_gflops() / roof_gflops : 0.0;
  }
  // Pure data movers (gemm_pack_b): position against the bandwidth roof.
  return roof.mem_bw_gbps > 0.0 ? achieved_gbps() / roof.mem_bw_gbps : 0.0;
}

double KernelProfileRow::llc_miss_per_byte() const {
  const int64_t bytes = total_bytes();
  if (bytes <= 0 || perf_samples <= 0) {
    return 0.0;
  }
  return static_cast<double>(llc_misses) / static_cast<double>(bytes);
}

KernelProfiler& KernelProfiler::Get() {
  // Leaked for the same static-destruction reason as MetricRegistry: pool
  // threads may record into their slots during process teardown.
  static KernelProfiler* profiler = new KernelProfiler();
  return *profiler;
}

void KernelProfiler::Enable(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
  if (!on) {
    return;
  }
  MutexLock lock(mutex_);
  if (probed_) {
    return;
  }
  probed_ = true;
  if (!RooflineProbeDisabled()) {
    roofline_ = RunRooflineProbe();
  }
}

void KernelProfiler::RegisterSlots(std::shared_ptr<prof_internal::SlotArray> slots) {
  MutexLock lock(mutex_);
  slots_.push_back(std::move(slots));
}

ProfilerReport KernelProfiler::Aggregate() const {
  // Integer totals first: addition commutes, so the per-thread registration
  // order (which varies run to run) cannot change the sums.
  std::vector<KernelSlot> totals(static_cast<std::size_t>(kNumProfKernels));
  RooflineProbe roofline;
  {
    MutexLock lock(mutex_);
    roofline = roofline_;
    for (const auto& slots : slots_) {
      for (int i = 0; i < kNumProfKernels; ++i) {
        const KernelSlot& s = (*slots)[static_cast<std::size_t>(i)];
        KernelSlot& t = totals[static_cast<std::size_t>(i)];
        t.calls += s.calls;
        t.timed_calls += s.timed_calls;
        t.wall_ns += s.wall_ns;
        t.bytes_read += s.bytes_read;
        t.bytes_written += s.bytes_written;
        t.flops += s.flops;
        t.perf_samples += s.perf_samples;
        t.cycles += s.cycles;
        t.instructions += s.instructions;
        t.llc_misses += s.llc_misses;
        t.stalled_backend += s.stalled_backend;
      }
    }
  }

  ProfilerReport report;
  report.rows.resize(static_cast<std::size_t>(kNumProfKernels));
  int64_t timed_wall_ns = 0;
  for (int i = 0; i < kNumProfKernels; ++i) {
    const KernelSlot& t = totals[static_cast<std::size_t>(i)];
    KernelProfileRow& row = report.rows[static_cast<std::size_t>(i)];
    row.kernel = static_cast<ProfKernel>(i);
    row.name = kKernelNames[i];
    row.calls = t.calls;
    row.timed_calls = t.timed_calls;
    row.wall_seconds = static_cast<double>(t.wall_ns) * 1e-9;
    row.bytes_read = t.bytes_read;
    row.bytes_written = t.bytes_written;
    row.flops = t.flops;
    row.perf_samples = t.perf_samples;
    row.cycles = t.cycles;
    row.instructions = t.instructions;
    row.llc_misses = t.llc_misses;
    row.stalled_backend = t.stalled_backend;
    timed_wall_ns += t.wall_ns;
  }
  report.timed_wall_seconds = static_cast<double>(timed_wall_ns) * 1e-9;
  report.roofline = roofline;
  report.perf_available = PerfCountersEnabled();
  report.perf_disabled_reason = PerfDisabledReason();
  return report;
}

void KernelProfiler::ExportMetrics() const {
  const ProfilerReport report = Aggregate();
  MetricRegistry& registry = MetricRegistry::Get();
  for (const KernelProfileRow& row : report.rows) {
    if (row.calls == 0) {
      continue;
    }
    const std::string prefix = std::string("prof.") + row.name;
    registry.GetCounter(prefix + ".calls").Add(row.calls);
    registry.GetCounter(prefix + ".bytes_read").Add(row.bytes_read);
    registry.GetCounter(prefix + ".bytes_written").Add(row.bytes_written);
    registry.GetCounter(prefix + ".flops").Add(row.flops);
    if (row.perf_samples > 0) {
      registry.GetCounter(prefix + ".cycles").Add(static_cast<int64_t>(row.cycles));
      registry.GetCounter(prefix + ".instructions")
          .Add(static_cast<int64_t>(row.instructions));
      registry.GetCounter(prefix + ".llc_misses")
          .Add(static_cast<int64_t>(row.llc_misses));
      registry.GetCounter(prefix + ".stalled_backend")
          .Add(static_cast<int64_t>(row.stalled_backend));
      registry.GetGauge(prefix + ".llc_miss_per_byte").Set(row.llc_miss_per_byte());
    }
    if (row.timed_calls > 0) {
      registry.GetGauge(prefix + ".wall_seconds").Set(row.wall_seconds);
      registry.GetGauge(prefix + ".gbps").Set(row.achieved_gbps());
      registry.GetGauge(prefix + ".gflops").Set(row.achieved_gflops());
      registry.GetGauge(prefix + ".intensity").Set(row.intensity());
      registry.GetGauge(prefix + ".roofline_fraction")
          .Set(row.roofline_fraction(report.roofline));
    }
  }
  if (report.roofline.mem_bw_gbps > 0.0) {
    registry.GetGauge("prof.roofline.mem_bw_gbps").Set(report.roofline.mem_bw_gbps);
    registry.GetGauge("prof.roofline.compute_gflops")
        .Set(report.roofline.compute_gflops);
  }
}

void KernelProfiler::ExportTraceCounters() const {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) {
    return;
  }
  const ProfilerReport report = Aggregate();
  for (const KernelProfileRow& row : report.rows) {
    if (row.calls == 0) {
      continue;
    }
    // Track names are the static kernel-name literals (Event stores the
    // pointer). One cumulative sample per kernel, timestamped now, so the
    // counter tracks sit at the end of the run's spans.
    tracer.EmitCounter(row.name,
                       {{"GB_moved", static_cast<double>(row.total_bytes()) * 1e-9},
                        {"GFLOPs", static_cast<double>(row.flops) * 1e-9}});
  }
}

void KernelProfiler::Reset() {
  MutexLock lock(mutex_);
  for (const auto& slots : slots_) {
    std::fill(slots->begin(), slots->end(), KernelSlot{});
  }
}

}  // namespace obs
}  // namespace flexgraph
