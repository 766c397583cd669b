#include "src/exec/simd.h"

#include <atomic>
#include <cstdlib>
#include <string>

#include "src/obs/prof.h"
#include "src/util/aligned_buffer.h"
#include "src/util/env.h"
#include "src/util/logging.h"

namespace flexgraph {
namespace simd {

// The packed-GEMM panel stride and the allocator's padding unit must agree:
// a line-aligned panel base plus a 16-float row stride is what keeps every
// 512-bit panel load inside one cache line.
static_assert(kPackAlignFloats == static_cast<int64_t>(kCacheLineFloats),
              "GEMM panel stride must match the cache-line padding unit");

namespace {

const KernelTable* TableFor(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return GetScalarTable();
    case IsaLevel::kSse2:
      return GetSse2Table();
    case IsaLevel::kAvx2:
      return GetAvx2Table();
    case IsaLevel::kAvx512:
      return GetAvx512Table();
  }
  return GetScalarTable();
}

// A variant can be compiled out (e.g. the AVX2 TU built for a non-x86
// target aliases the scalar table); the table's own level says what it
// really is.
bool VariantAvailable(IsaLevel level) { return TableFor(level)->level == level; }

IsaLevel ResolveStartupIsa() {
  IsaLevel level = DetectIsa();
  const std::string env = EnvString("FLEXGRAPH_ISA", "");
  if (!env.empty()) {
    IsaLevel requested;
    if (!ParseIsaName(env, &requested)) {
      // Through the project logger so FLEXGRAPH_LOG_LEVEL filtering applies
      // (benchmarks silence Warning and below to keep timing output clean).
      FLEX_LOG(Warning) << "FLEXGRAPH_ISA=" << env
                        << " not recognized (scalar|sse2|neon|avx2|avx512); using "
                        << IsaName(level);
    } else if (!IsaSupported(requested) || !VariantAvailable(requested)) {
      FLEX_LOG(Warning) << "FLEXGRAPH_ISA=" << env << " exceeds this CPU/build (max "
                        << IsaName(level) << "); clamping";
    } else {
      level = requested;
    }
  }
  // Walk down past compiled-out variants (scalar always exists).
  while (!VariantAvailable(level)) {
    level = static_cast<IsaLevel>(static_cast<int>(level) - 1);
  }
  return level;
}

const KernelTable* StartupTable() {
  static const KernelTable* table = TableFor(ResolveStartupIsa());
  return table;
}

std::atomic<const KernelTable*> g_active{nullptr};

// ---- Profiled dispatch -----------------------------------------------------
//
// When profiling is on, g_active points at g_prof_table, a table of shims
// that account for each invocation (src/obs/prof.h) and then call through
// g_prof_base — the real per-ISA table. The shims never show up when
// profiling is off, so the unprofiled dispatch stays a single indirect call.
//
// Byte/FLOP formulas are derived purely from the kernel arguments (which the
// execution plan fixes): integer sums in a deterministic order, bit-identical
// across runs, thread counts, ISA levels, and FLEXGRAPH_PERF settings.
// Convention: multiply-accumulate = 2 FLOPs, add/compare/scale = 1; every
// operand array touched counts once per element, read-modify-write outputs
// count on both sides. prof_test.cc pins these formulas — change them there
// and in DESIGN.md §14 together.

std::atomic<const KernelTable*> g_prof_base{nullptr};
std::atomic<bool> g_profiling{false};
KernelTable g_prof_table{};  // shims installed by InstallProfShims

const KernelTable* ProfBase() { return g_prof_base.load(std::memory_order_acquire); }

using obs::ProfKernel;

constexpr int64_t kF = static_cast<int64_t>(sizeof(float));     // feature element
constexpr int64_t kIdx = static_cast<int64_t>(sizeof(uint32_t));  // gather/scatter id
constexpr int64_t kOff = static_cast<int64_t>(sizeof(uint64_t));  // CSC offset

// Row primitives run per edge inside the hot loops — work-only accounting,
// no clock or counter read (see prof.h).
void ProfAddRow(float* dst, const float* src, int64_t d) {
  obs::RecordKernelWork(ProfKernel::kAddRow, 2 * d * kF, d * kF, d);
  ProfBase()->add_row(dst, src, d);
}

void ProfMaxRow(float* dst, const float* src, int64_t d) {
  obs::RecordKernelWork(ProfKernel::kMaxRow, 2 * d * kF, d * kF, d);
  ProfBase()->max_row(dst, src, d);
}

void ProfMinRow(float* dst, const float* src, int64_t d) {
  obs::RecordKernelWork(ProfKernel::kMinRow, 2 * d * kF, d * kF, d);
  ProfBase()->min_row(dst, src, d);
}

void ProfScaleRow(float* dst, float s, int64_t d) {
  obs::RecordKernelWork(ProfKernel::kScaleRow, d * kF, d * kF, d);
  ProfBase()->scale_row(dst, s, d);
}

void ProfAxpyRow(float* dst, const float* src, float a, int64_t d) {
  obs::RecordKernelWork(ProfKernel::kAxpyRow, 2 * d * kF, d * kF, 2 * d);
  ProfBase()->axpy_row(dst, src, a, d);
}

// Coarse kernels run a whole chunk per call — timed scope with hardware
// counters around the real kernel.
void ProfSegmentReduce(const float* x, int64_t d, const uint32_t* ids,
                       const uint64_t* offsets, int64_t s_lo, int64_t s_hi, Reduce kind,
                       float* out) {
  const int64_t segs = s_hi - s_lo;
  const int64_t edges = static_cast<int64_t>(offsets[s_hi] - offsets[s_lo]);
  const int64_t read =
      edges * d * kF + (ids != nullptr ? edges * kIdx : 0) + (segs + 1) * kOff;
  const int64_t flops = edges * d + (kind == Reduce::kMean ? segs * d : 0);
  obs::TimedKernelScope scope(ProfKernel::kSegmentReduce, read, segs * d * kF, flops);
  ProfBase()->segment_reduce(x, d, ids, offsets, s_lo, s_hi, kind, out);
}

void ProfSegmentReduceExt(const float* x, int64_t base_rows, const float* partials,
                          int64_t d, const uint32_t* ids, const uint64_t* offsets,
                          const uint64_t* scale_offsets, int64_t s_lo, int64_t s_hi,
                          Reduce kind, float* out) {
  const int64_t segs = s_hi - s_lo;
  const int64_t refs = static_cast<int64_t>(offsets[s_hi] - offsets[s_lo]);
  // Same shape as segment_reduce with ids always present, plus the original
  // widths read from scale_offsets when mean-scaling.
  const int64_t read = refs * (d * kF + kIdx) + (segs + 1) * kOff +
                       (kind == Reduce::kMean && scale_offsets != nullptr
                            ? (segs + 1) * kOff
                            : 0);
  const int64_t flops = refs * d + (kind == Reduce::kMean ? segs * d : 0);
  obs::TimedKernelScope scope(ProfKernel::kSegmentReduceExt, read, segs * d * kF, flops);
  ProfBase()->segment_reduce_ext(x, base_rows, partials, d, ids, offsets, scale_offsets,
                                 s_lo, s_hi, kind, out);
}

// Member rows the instance-attention kernels gather for instances
// [i_lo, i_hi), one range of prefix runs: the first instance of a run
// gathers all its w rows, each later one its last row only. Counted from
// the ids before a shim's timed scope opens.
int64_t GatheredRows(const uint32_t* ids, const uint64_t* leaf_offsets, uint64_t i_lo,
                     uint64_t i_hi) {
  int64_t rows = 0;
  uint64_t prev_width = 0;
  for (uint64_t i = i_lo; i < i_hi; ++i) {
    const uint64_t e0 = leaf_offsets[i];
    const uint64_t width = leaf_offsets[i + 1] - e0;
    rows += static_cast<int64_t>(ContinuesPrefixRun(ids, e0, width, prev_width) ? 1 : width);
    prev_width = width;
  }
  return rows;
}

// The forward and pass A find runs inside each slot.
int64_t SlotGatheredRows(const uint32_t* ids, const uint64_t* leaf_offsets,
                         const uint64_t* slot_offsets, int64_t s_lo, int64_t s_hi) {
  int64_t rows = 0;
  for (int64_t s = s_lo; s < s_hi; ++s) {
    rows += GatheredRows(ids, leaf_offsets, slot_offsets[s], slot_offsets[s + 1]);
  }
  return rows;
}

// The instance-attention kernels bill the member rows they gather as
// reads, and every leaf id once (the run test reads them all); the tile is
// task-private scratch and counts on neither side. Their totals must not
// follow how a call is split into tasks (which follows the thread count),
// so a task bills one offset per segment it owns, and the task that starts
// at 0 adds the closing offset and any operand every task reads (the
// score weight w) — gemm's fence term. The forward and pass A find runs
// inside slots, which no chunk splits, so their row counts do not follow
// the split either.
void ProfInstanceAttention(const float* x, int64_t d, const uint32_t* ids,
                           const uint64_t* leaf_offsets, const uint64_t* slot_offsets,
                           const float* w, float bias, int64_t s_lo, int64_t s_hi, float* tile,
                           float* alpha, float* out) {
  const int64_t segs = s_hi - s_lo;
  const uint64_t i_lo = slot_offsets[s_lo];
  const uint64_t i_hi = slot_offsets[s_hi];
  const auto inst = static_cast<int64_t>(i_hi - i_lo);
  const auto refs = static_cast<int64_t>(leaf_offsets[i_hi] - leaf_offsets[i_lo]);
  const int64_t rows = SlotGatheredRows(ids, leaf_offsets, slot_offsets, s_lo, s_hi);
  const int64_t read = rows * d * kF + refs * kIdx + (inst + segs) * kOff +
                       (s_lo == 0 ? 2 * kOff + d * kF : 0);
  // Means (an add per gathered row element, a scale per instance element),
  // the score chain (a multiply-add per element) and its bias add, the
  // softmax (5 per instance, row_softmax's nominal count), the weighted sum
  // (a multiply-add per element).
  const int64_t flops = rows * d + inst * (5 * d + 6);
  obs::TimedKernelScope scope(ProfKernel::kInstanceAttention, read,
                              segs * d * kF + inst * kF, flops);
  ProfBase()->instance_attention(x, d, ids, leaf_offsets, slot_offsets, w, bias, s_lo, s_hi,
                                 tile, alpha, out);
}

void ProfInstanceAttentionGrad(const float* x, int64_t d, const uint32_t* ids,
                               const uint64_t* leaf_offsets, const uint64_t* slot_offsets,
                               const float* alpha, const float* grad_slots, int64_t s_lo,
                               int64_t s_hi, float* tile, float* dscore) {
  const int64_t segs = s_hi - s_lo;
  const uint64_t i_lo = slot_offsets[s_lo];
  const uint64_t i_hi = slot_offsets[s_hi];
  const auto inst = static_cast<int64_t>(i_hi - i_lo);
  const auto refs = static_cast<int64_t>(leaf_offsets[i_hi] - leaf_offsets[i_lo]);
  const int64_t rows = SlotGatheredRows(ids, leaf_offsets, slot_offsets, s_lo, s_hi);
  // The forward's gather, plus α and each slot's gradient row.
  const int64_t read = rows * d * kF + refs * kIdx + (inst + segs) * kOff +
                       (s_lo == 0 ? 2 * kOff : 0) + inst * kF + segs * d * kF;
  // Means, gα (a multiply-add per element), then the slot dot and
  // α·(gα − dot), 2 each per instance.
  const int64_t flops = rows * d + inst * (3 * d + 4);
  obs::TimedKernelScope scope(ProfKernel::kInstanceAttentionGrad, read, inst * kF, flops);
  ProfBase()->instance_attention_grad(x, d, ids, leaf_offsets, slot_offsets, alpha, grad_slots,
                                      s_lo, s_hi, tile, dscore);
}

void ProfInstanceAttentionDw(const float* x, int64_t d, const uint32_t* ids,
                             const uint64_t* leaf_offsets, int64_t num_instances,
                             const float* dscore, int64_t k_lo, int64_t k_hi, float* dw) {
  const int64_t cols = k_hi - k_lo;
  const auto refs = static_cast<int64_t>(leaf_offsets[num_instances]);
  // Runs may cross slots here: every block sweeps all instances.
  const int64_t rows =
      GatheredRows(ids, leaf_offsets, 0, static_cast<uint64_t>(num_instances));
  // Every 16-column block sweeps all instances: the ids, offsets and dscore
  // once per block, the gathered rows' columns once. Linear in the blocks,
  // so the totals do not follow how a call's blocks are split into tasks.
  const int64_t blocks = (cols + kPackAlignFloats - 1) / kPackAlignFloats;
  const int64_t read = blocks * (refs * kIdx + (num_instances + 1) * kOff + num_instances * kF) +
                       rows * cols * kF;
  // Means per column, then a nominal multiply-add per instance (the zero
  // skip depends on the data; see gemm_trans_a).
  const int64_t flops = cols * (rows + 3 * num_instances);
  obs::TimedKernelScope scope(ProfKernel::kInstanceAttentionDw, read, cols * kF, flops);
  ProfBase()->instance_attention_dw(x, d, ids, leaf_offsets, num_instances, dscore, k_lo, k_hi,
                                    dw);
}

void ProfInstanceAttentionInputGrad(const float* grad_slots, int64_t d, const uint32_t* slot_of,
                                    const float* alpha, const float* dscore, const float* w,
                                    const uint64_t* src_offsets, const uint32_t* src_segments,
                                    const uint64_t* seg_offsets, int64_t v_lo, int64_t v_hi,
                                    float* gx) {
  const int64_t range = v_hi - v_lo;
  const auto edges = static_cast<int64_t>(src_offsets[v_hi] - src_offsets[v_lo]);
  // indirect_backward's shape, plus per edge the instance's slot id, α and
  // dscore, and w once.
  const int64_t read = edges * (d * kF + 2 * kIdx + 2 * kF) + range * kOff +
                       (v_lo == 0 ? kOff + d * kF : 0);
  // Per element: α·G, dscore·w, the +0 seed, their sum, the 1/width scale
  // and the accumulate.
  obs::TimedKernelScope scope(ProfKernel::kInstanceAttentionInputGrad, read, range * d * kF,
                              6 * edges * d);
  ProfBase()->instance_attention_input_grad(grad_slots, d, slot_of, alpha, dscore, w,
                                            src_offsets, src_segments, seg_offsets, v_lo, v_hi,
                                            gx);
}

void ProfIndirectBackward(const float* grad_out, int64_t d, const uint64_t* src_offsets,
                          const uint32_t* src_segments, const uint64_t* seg_offsets,
                          Reduce kind, int64_t v_lo, int64_t v_hi, float* gx) {
  const int64_t range = v_hi - v_lo;
  const int64_t edges = static_cast<int64_t>(src_offsets[v_hi] - src_offsets[v_lo]);
  const int64_t read = edges * (d * kF + kIdx) + (range + 1) * kOff;
  // Mean scales each accumulated row by 1/width: axpy (2 FLOPs/element)
  // instead of add.
  const int64_t flops = (kind == Reduce::kMean ? 2 : 1) * edges * d;
  obs::TimedKernelScope scope(ProfKernel::kIndirectBackward, read, range * d * kF, flops);
  ProfBase()->indirect_backward(grad_out, d, src_offsets, src_segments, seg_offsets, kind,
                                v_lo, v_hi, gx);
}

void ProfScatterRows(const float* values, int64_t d, const uint32_t* index, int64_t rows,
                     Reduce kind, float* out) {
  // Each row reads its value row and the out row it accumulates into (RMW).
  const int64_t read = rows * (2 * d * kF + kIdx);
  obs::TimedKernelScope scope(ProfKernel::kScatterRows, read, rows * d * kF, rows * d);
  ProfBase()->scatter_rows(values, d, index, rows, kind, out);
}

void ProfGroupReduce(const float* values, int64_t d, int64_t group, Reduce kind,
                     int64_t row_lo, int64_t row_hi, float* out) {
  const int64_t range = row_hi - row_lo;
  const int64_t flops = range * group * d + (kind == Reduce::kMean ? range * d : 0);
  obs::TimedKernelScope scope(ProfKernel::kGroupReduce, range * group * d * kF,
                              range * d * kF, flops);
  ProfBase()->group_reduce(values, d, group, kind, row_lo, row_hi, out);
}

void ProfGemmPackB(const float* b, int64_t k, int64_t n, bool transpose, float* packed) {
  obs::TimedKernelScope scope(ProfKernel::kGemmPackB, k * n * kF,
                              k * PackedStride(n) * kF, 0);
  ProfBase()->gemm_pack_b(b, k, n, transpose, packed);
}

// The packed panel (gemm) and b (gemm_trans_a) are read by every chunk of a
// call. Billing them per chunk would make the totals follow ParallelFor's
// split, which follows the thread count; instead the chunk that starts at
// row 0 bills them once per call — a fence term that telescopes, because
// the chunks of a call partition its output rows.
void ProfGemm(const float* a, int64_t lda, const float* packed_b, int64_t k, int64_t n,
              float* c, int64_t ldc, int64_t row_lo, int64_t row_hi) {
  const int64_t range = row_hi - row_lo;
  const int64_t read = range * k * kF + (row_lo == 0 ? k * PackedStride(n) * kF : 0);
  obs::TimedKernelScope scope(ProfKernel::kGemm, read, range * n * kF, 2 * range * n * k);
  ProfBase()->gemm(a, lda, packed_b, k, n, c, ldc, row_lo, row_hi);
}

void ProfGemmTransA(const float* a, int64_t k, int64_t m, const float* b, int64_t n,
                    float* c, int64_t i_lo, int64_t i_hi) {
  const int64_t range = i_hi - i_lo;
  // c is written once (the kernel overwrites the rows it owns). FLOPs are
  // nominal: the zero skip depends on the data, and data-dependent counts
  // would break the bit-identical-accounting contract.
  const int64_t read = range * k * kF + (i_lo == 0 ? k * n * kF : 0);
  obs::TimedKernelScope scope(ProfKernel::kGemmTransA, read, range * n * kF,
                              2 * range * n * k);
  ProfBase()->gemm_trans_a(a, k, m, b, n, c, i_lo, i_hi);
}

void InstallProfShims() {
  g_prof_table.add_row = ProfAddRow;
  g_prof_table.max_row = ProfMaxRow;
  g_prof_table.min_row = ProfMinRow;
  g_prof_table.scale_row = ProfScaleRow;
  g_prof_table.axpy_row = ProfAxpyRow;
  g_prof_table.segment_reduce = ProfSegmentReduce;
  g_prof_table.segment_reduce_ext = ProfSegmentReduceExt;
  g_prof_table.instance_attention = ProfInstanceAttention;
  g_prof_table.instance_attention_grad = ProfInstanceAttentionGrad;
  g_prof_table.instance_attention_dw = ProfInstanceAttentionDw;
  g_prof_table.instance_attention_input_grad = ProfInstanceAttentionInputGrad;
  g_prof_table.indirect_backward = ProfIndirectBackward;
  g_prof_table.scatter_rows = ProfScatterRows;
  g_prof_table.group_reduce = ProfGroupReduce;
  g_prof_table.gemm_pack_b = ProfGemmPackB;
  g_prof_table.gemm = ProfGemm;
  g_prof_table.gemm_trans_a = ProfGemmTransA;
}

// Single point through which every rebind goes: with profiling on, the real
// table becomes the shim base and g_prof_table mirrors its identity fields
// (tests inspect Kernels().level across SetIsa sweeps).
void StoreActive(const KernelTable* base) {
  if (g_profiling.load(std::memory_order_acquire)) {
    g_prof_base.store(base, std::memory_order_release);
    g_prof_table.level = base->level;
    g_prof_table.name = base->name;
    g_prof_table.vector_width = base->vector_width;
    g_active.store(&g_prof_table, std::memory_order_release);
  } else {
    g_active.store(base, std::memory_order_release);
  }
}

const KernelTable* Active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = StartupTable();
    g_active.store(t, std::memory_order_release);
  }
  return t;
}

}  // namespace

const KernelTable& Kernels() { return *Active(); }

IsaLevel ActiveIsa() { return Active()->level; }

bool SetIsa(IsaLevel level) {
  if (!IsaSupported(level) || !VariantAvailable(level)) {
    return false;
  }
  StoreActive(TableFor(level));
  return true;
}

void ResetIsa() { StoreActive(StartupTable()); }

void SetKernelProfiling(bool on) {
  // Capture the real table before flipping the flag: with profiling already
  // on it is the shim base, otherwise it is the active table itself.
  const KernelTable* base = g_profiling.load(std::memory_order_acquire)
                                ? ProfBase()
                                : Active();
  if (on) {
    InstallProfShims();
  }
  g_profiling.store(on, std::memory_order_release);
  StoreActive(base);
  obs::KernelProfiler::Get().Enable(on);
}

bool KernelProfilingEnabled() { return g_profiling.load(std::memory_order_acquire); }

}  // namespace simd
}  // namespace flexgraph
