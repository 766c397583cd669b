// Explicit SIMD kernel suite with runtime CPU dispatch — the hot inner loops
// of the feature-fusion aggregation kernels, the packed GEMM, and the sparse
// scatter / dense reshape-reduce paths (paper §4.3's AVX-512 vertex-reduce
// fast path).
//
// One KernelTable per ISA level (scalar / SSE2-or-NEON / AVX2 / AVX-512) is
// compiled from a shared body template (simd_body.h); the active table is
// selected once at startup from a CPUID probe, clamped by the FLEXGRAPH_ISA
// environment override, and is rebindable at runtime for tests (SetIsa).
//
// Determinism contract (inherited from the planned execution layer and
// extended across ISA levels): every vector lane holds one output element
// (kernels vectorize along the feature dimension; the narrow gemm_trans_a
// along a's columns, the instance scores along instances) — per output
// element the accumulation order over edges / rows / k is exactly the
// sequential scalar kernel's, lanes never mix, and no variant contracts a
// multiply-add (variant TUs build with -ffp-contract=off; the two FMA chains
// of the instance-attention backward are explicit fused ops — the policy's
// Fma, which rounds once like std::fma, and std::fma — as in the tensor
// layer's RowDot and segment softmax backward).
// Results are therefore bitwise identical across scalar/sse2/avx2/avx512 and
// across thread counts.
#ifndef SRC_EXEC_SIMD_H_
#define SRC_EXEC_SIMD_H_

#include <cstdint>

#include "src/exec/cpu_features.h"

namespace flexgraph {
namespace simd {

// Mirrors the tensor layer's ReduceKind without depending on it (the exec
// layer sits below src/tensor). The tensor kernels map explicitly.
enum class Reduce : int { kSum = 0, kMean = 1, kMax = 2, kMin = 3 };

// Packed GEMM panel rows are padded to this many floats (one cache line) so
// vector loads never split cache lines and the panel layout is identical at
// every ISA level.
inline constexpr int64_t kPackAlignFloats = 16;

// Software-prefetch lookahead of the gather-reduce kernels: while reducing
// leaf row e the kernel prefetches the row ids[e + kPrefetchLeafRows] — far
// enough to cover DRAM latency at GNN feature widths, near enough to stay in
// the chunk's working set.
inline constexpr int64_t kPrefetchLeafRows = 8;

inline constexpr int64_t PackedStride(int64_t n) {
  return (n + kPackAlignFloats - 1) / kPackAlignFloats * kPackAlignFloats;
}

// MAGNN's instance attention (the instance_attention* kernels below): the
// instance with leaves [e0, e0 + width) continues a prefix run when the
// instance before it, which ends at e0, has the same width ≥ 1 and the
// same first width − 1 leaf ids. Both means then fold the same partial of
// those rows before adding their last row, so the kernels gather a run's
// shared rows once (per column block) and one row per instance after
// that. A kernel passes prev_width = 0 for the first instance of its
// range, so it never reads ids before the range.
inline bool ContinuesPrefixRun(const uint32_t* ids, uint64_t e0, uint64_t width,
                               uint64_t prev_width) {
  bool same = width != 0 && width == prev_width;
  for (uint64_t k = 0; same && k + 1 < width; ++k) {
    same = ids[e0 - width + k] == ids[e0 + k];
  }
  return same;
}

// Function-pointer table for one ISA level. Row primitives cover the simple
// dst-op-src loops; the coarse entries run a whole chunk of a kernel so the
// dispatch cost is paid once per task, not once per row.
struct KernelTable {
  IsaLevel level;
  const char* name;
  int vector_width;  // float lanes per register (1 for scalar)

  // dst[j] op= src[j] for j < d.
  void (*add_row)(float* dst, const float* src, int64_t d);
  // dst[j] = dst[j] > src[j] ? dst[j] : src[j]  (maxps semantics).
  void (*max_row)(float* dst, const float* src, int64_t d);
  void (*min_row)(float* dst, const float* src, int64_t d);
  void (*scale_row)(float* dst, float s, int64_t d);
  // dst[j] += a * src[j], multiply then add (never fused).
  void (*axpy_row)(float* dst, const float* src, float a, int64_t d);

  // Fused gather-reduce over segments [s_lo, s_hi): out row s reduces x rows
  // ids[offsets[s] .. offsets[s+1]) (ids == nullptr reduces contiguous rows
  // offsets[s] .. offsets[s+1), the materialized segment-reduce). `out` is
  // the full output base (row stride d) and must be zeroed for sum/mean.
  // Prefetches upcoming leaf rows kPrefetchLeafRows ahead when gathering.
  void (*segment_reduce)(const float* x, int64_t d, const uint32_t* ids,
                         const uint64_t* offsets, int64_t s_lo, int64_t s_hi, Reduce kind,
                         float* out);

  // Extended-id gather-reduce for the fused bottom level (common-subtree
  // fusion): id < base_rows reads x row id, id >= base_rows reads partials
  // row (id - base_rows). Mean scales by the ORIGINAL segment width
  // scale_offsets[s+1] - scale_offsets[s] (scale_offsets == nullptr falls
  // back to the rewritten width — the partial-build calls, which are always
  // kSum). Accumulation is the same zeroed left-fold as segment_reduce, so
  // seeding a segment with its materialized prefix keeps results bitwise
  // identical to the unfused reduce. `out` is the full output base (row
  // stride d) and must be zeroed for sum/mean.
  void (*segment_reduce_ext)(const float* x, int64_t base_rows, const float* partials,
                             int64_t d, const uint32_t* ids, const uint64_t* offsets,
                             const uint64_t* scale_offsets, int64_t s_lo, int64_t s_hi,
                             Reduce kind, float* out);

  // ---- MAGNN's instance attention, recomputed instead of stored ----
  //
  // Instance i averages the x rows ids[leaf_offsets[i] .. leaf_offsets[i+1])
  // (segment_reduce's kMean fold: +0, then + each row in leaf order, then
  // × 1/width); slot s holds instances [slot_offsets[s], slot_offsets[s+1]).
  // No kernel stores an instance row: each re-forms the means it needs into
  // registers or into `tile`, a per-task scratch of (longest slot) × d floats,
  // one prefix run (ContinuesPrefixRun) at a time — the forward and pass A
  // within each slot, pass B across the whole range.

  // Forward over slots [s_lo, s_hi). Per slot: the instance means into
  // `tile`, the scores s_i = ((0 + m_i[0]·w[0]) + m_i[1]·w[1] + …) + bias
  // (gemm's n = 1 chain, lane-parallel across instances), α = the segment
  // softmax of the scores, written to alpha[i], and out row s = the +0-seeded
  // Σ_i α_i·m_i in instance order. Every out row of the range is written
  // (empty slots as zeros), so `out` needs no zero fill.
  void (*instance_attention)(const float* x, int64_t d, const uint32_t* ids,
                             const uint64_t* leaf_offsets, const uint64_t* slot_offsets,
                             const float* w, float bias, int64_t s_lo, int64_t s_hi,
                             float* tile, float* alpha, float* out);

  // Backward pass A over slots [s_lo, s_hi): re-forms each slot's means in
  // `tile` and writes dscore[i] = α_i·(gα_i − Σ_r α_r·gα_r), where gα_i is
  // the FMA chain Σ_j G_s[j]·m_i[j] over the slot's gradient row G_s
  // (lane-parallel across instances, like the scores) and the slot sum an
  // FMA chain too, both from +0 (the segment softmax backward).
  void (*instance_attention_grad)(const float* x, int64_t d, const uint32_t* ids,
                                  const uint64_t* leaf_offsets, const uint64_t* slot_offsets,
                                  const float* alpha, const float* grad_slots, int64_t s_lo,
                                  int64_t s_hi, float* tile, float* dscore);

  // Backward pass B over columns [k_lo, k_hi) of the score weight (k_lo a
  // multiple of kPackAlignFloats): dw[k] = the sum over every instance i, in
  // ascending i, of m_i[k]·dscore[i] from +0, skipping the i where
  // m_i[k] == 0 — gemm_trans_a's chain — with each m_i[k] recomputed.
  // Overwrites dw[k_lo .. k_hi).
  void (*instance_attention_dw)(const float* x, int64_t d, const uint32_t* ids,
                                const uint64_t* leaf_offsets, int64_t num_instances,
                                const float* dscore, int64_t k_lo, int64_t k_hi, float* dw);

  // Backward pass C: indirect_backward over source rows [v_lo, v_hi) for a
  // kMean bottom level, with each instance's gradient row rebuilt in
  // registers instead of read: g_i[j] = α_i·G[slot_of[i]][j] +
  // (0 + dscore_i·w[j]). Row v of gx accumulates (1/width_i)·g_i for the
  // instances src_segments[src_offsets[v] .. src_offsets[v+1]), width_i from
  // seg_offsets. gx must be zeroed.
  void (*instance_attention_input_grad)(const float* grad_slots, int64_t d,
                                        const uint32_t* slot_of, const float* alpha,
                                        const float* dscore, const float* w,
                                        const uint64_t* src_offsets,
                                        const uint32_t* src_segments,
                                        const uint64_t* seg_offsets, int64_t v_lo,
                                        int64_t v_hi, float* gx);

  // Planned bottom-level backward over source rows [v_lo, v_hi): row v of gx
  // accumulates grad rows src_segments[src_offsets[v] .. src_offsets[v+1]),
  // scaled by 1/segment-width for mean. gx must be zeroed. Prefetches
  // upcoming grad rows kPrefetchLeafRows ahead.
  void (*indirect_backward)(const float* grad_out, int64_t d, const uint64_t* src_offsets,
                            const uint32_t* src_segments, const uint64_t* seg_offsets,
                            Reduce kind, int64_t v_lo, int64_t v_hi, float* gx);

  // Sequential scatter accumulation (destinations may collide): out row
  // index[i] accumulates values row i in ascending i order. Sum/mean
  // accumulate into a zeroed out; max/min assume the caller pre-filled the
  // identity and fixes untouched rows afterwards. Mean scaling is the
  // caller's job (it needs the counts).
  void (*scatter_rows)(const float* values, int64_t d, const uint32_t* index, int64_t rows,
                       Reduce kind, float* out);

  // Dense reshape-reduce: out row i (i in [row_lo, row_hi)) reduces values
  // rows [i*group, (i+1)*group). Sum/mean need a zeroed out; mean scaling by
  // 1/group happens inside.
  void (*group_reduce)(const float* values, int64_t d, int64_t group, Reduce kind,
                       int64_t row_lo, int64_t row_hi, float* out);

  // Packs row-major B [k x n] (transpose == false) or row-major B [n x k]
  // read as B^T (transpose == true) into a [k x PackedStride(n)] panel with
  // zero-padded row tails. The panel layout is ISA-independent.
  void (*gemm_pack_b)(const float* b, int64_t k, int64_t n, bool transpose, float* packed);

  // Register-blocked micro-kernel over output rows [row_lo, row_hi):
  // c[i][j] = sum_kk a[i*lda + kk] * packed_b[kk*PackedStride(n) + j], with
  // ascending-kk accumulation per element. Overwrites the c rows it owns.
  void (*gemm)(const float* a, int64_t lda, const float* packed_b, int64_t k, int64_t n,
               float* c, int64_t ldc, int64_t row_lo, int64_t row_hi);

  // A-transposed GEMM over output rows [i_lo, i_hi): c[i][j] = the sum over
  // kk ascending of a[kk*m + i] * b[kk*n + j] (multiply, then add, from
  // +0), skipping the kk where a[kk*m + i] == 0. Overwrites the c rows it
  // owns, so c needs no zero fill. Narrow b (n < vector_width) vectorizes
  // over a's columns, one lane per output element; callers that split rows
  // across threads should cut at multiples of kPackAlignFloats, which keeps
  // every task on whole cache lines of c and on whole vectors.
  void (*gemm_trans_a)(const float* a, int64_t k, int64_t m, const float* b, int64_t n,
                       float* c, int64_t i_lo, int64_t i_hi);
};

// The active table. First use resolves FLEXGRAPH_ISA (clamped to what the
// CPU supports, with a warning when the request exceeds it) and caches the
// result; subsequent calls are one acquire load.
const KernelTable& Kernels();

// ISA level of the active table.
IsaLevel ActiveIsa();

// Rebinds the active table (tests sweep levels this way). Returns false —
// leaving the binding unchanged — when the CPU cannot execute `level` or the
// variant was compiled out on this architecture. Not thread-safe against
// concurrently running kernels; call between kernels only.
bool SetIsa(IsaLevel level);

// Restores the startup default (FLEXGRAPH_ISA / CPU probe).
void ResetIsa();

// Swaps the active table for a shim table that routes every invocation
// through the kernel profiler (src/obs/prof.h) before calling the real
// kernel: coarse kernels get a timed scope with hardware counters, row
// primitives get work-only byte/FLOP accounting. The shims mirror the base
// table's level/name/vector_width, so ISA-inspecting callers see through
// them; SetIsa/ResetIsa keep working while profiling is on. Zero overhead
// when off — the unshimmed table is dispatched directly. Same caveat as
// SetIsa: not thread-safe against concurrently running kernels.
void SetKernelProfiling(bool on);
bool KernelProfilingEnabled();

// Per-level table accessors (variant TUs; aliases the scalar table where the
// architecture cannot compile the variant).
const KernelTable* GetScalarTable();
const KernelTable* GetSse2Table();
const KernelTable* GetAvx2Table();
const KernelTable* GetAvx512Table();

}  // namespace simd
}  // namespace flexgraph

#endif  // SRC_EXEC_SIMD_H_
