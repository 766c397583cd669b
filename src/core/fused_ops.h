// Differentiable aggregation kernels parameterized by execution strategy,
// each executing one level of a compiled ExecutionPlan.
//
// The central op is an *indirect segment reduce*:
//     out[s] = reduce_{e ∈ [offsets[s], offsets[s+1])} x[leaf_ids[e]]
// which is exactly "aggregate the features of a destination's sources" for
// one HDG level. The sparse (SA) path materializes the gathered [E, d]
// message tensor first — modelling scatter-op pipelines — while the fused
// (FA) path streams source rows into per-destination accumulators with a
// contiguous, auto-vectorizable inner loop (the paper's SIMD feature fusion).
// Both run the same backward, grad_x[leaf_ids[e]] += grad_out[segment(e)],
// as a per-source gather over the plan's inverse (source→segment) map.
#ifndef SRC_CORE_FUSED_OPS_H_
#define SRC_CORE_FUSED_OPS_H_

#include <cstdint>
#include <span>

#include "src/exec/exec_strategy.h"
#include "src/exec/plan.h"
#include "src/graph/graph_types.h"
#include "src/tensor/autograd.h"

namespace flexgraph {

// Counters exposed so tests and the Table-2 analysis can verify *why* a
// strategy is slow (bytes materialized) rather than trusting wall clock only.
struct AggregationStats {
  uint64_t materialized_bytes = 0;  // bytes of intermediate [E, d] tensors
  uint64_t fused_rows = 0;          // rows reduced through the fused kernel
  uint64_t sparse_rows = 0;         // rows reduced through scatter ops
  uint64_t dense_rows = 0;          // rows reduced through dense group ops
  double bottom_seconds = 0.0;      // wall time spent in bottom-level reduces
                                    // (feeds the distributed pipeline model)

  void Reset() { *this = AggregationStats(); }
};

// The raw fused forward kernel (no autograd): for each segment s reduce the
// rows x[leaf_ids[e]]. kind may be kSum/kMean/kMin/kMax. `chunks` (optional)
// are precompiled segment-aligned parallel chunk boundaries; without them
// fixed boundaries are derived on the fly. Bitwise identical across thread
// counts either way.
Tensor FusedSegmentGatherReduce(const Tensor& x, std::span<const VertexId> leaf_ids,
                                std::span<const uint64_t> offsets, ReduceKind kind,
                                std::span<const int64_t> chunks = {});

// Differentiable indirect segment reduce over one level plan, with a
// strategy-selected forward. kind must be kSum or kMean (the differentiable
// aggregators GNNs use); stats may be null. Indices, chunk boundaries and the
// inverse (source→segment) backward map all come precompiled from the level,
// so steady-state epochs build no index tensors and the backward runs as a
// race-free parallel per-source gather, bitwise identical for every strategy
// and thread count.
Variable AgIndirectSegmentReduce(const Variable& x, const LevelPlan& level, ReduceKind kind,
                                 ExecStrategy strategy, AggregationStats* stats);

// MAGNN's bottom and instance levels as one planned op, for SA+FA and HA
// (paper §4.2's feature fusion carried up one HDG level; DESIGN.md §20).
// Out row s = Σ α_i·m_i over slot s's instances (`instance` level), where
// m_i is the mean of instance i's member rows of x (the kMean `bottom`
// level) and α the softmax, within the slot, of the scores m_i·w + b (w
// [d, 1] and b [1, 1], the attention Linear's parameters). No [I, d] tensor
// exists: the forward saves α ([I, 1]), the backward writes the score
// gradient ([I, 1]) and recomputes instance rows where it needs them. Every
// float — output and all gradients, including the fused bottom backward
// when `bottom` carries a FusionPlan — is bitwise the materializing
// composition's: AgIndirectSegmentReduce(kMean), AgMatMul, AgAddBias,
// AgSegmentSoftmax, AgMulRowScalar, AgSegmentReduce(kSum). Forward wall
// time is the caller's to bill.
Variable AgInstanceAttention(const Variable& x, const Variable& w, const Variable& b,
                             const LevelPlan& bottom, const LevelPlan& instance,
                             AggregationStats* stats);

// Schema-level reduce over level.group consecutive rows per output row, with
// strategy selection: under kHybrid this is a dense reshape+reduce
// (AgGroupSum/Mean); under SA/SA+FA the same math runs as a scatter over the
// level's precompiled index tensor, modelling sparse execution of the schema
// level.
Variable AgSchemaReduce(const Variable& slots, const LevelPlan& level, ReduceKind kind,
                        ExecStrategy strategy, AggregationStats* stats);

// Concatenation across a group of consecutive rows: [n·g, d] → [n, g·d].
// Row-major layout makes this a pure reshape (no data movement beyond the
// copy into the new tensor). Used by JK-Net's cross-hop concat.
Variable AgGroupConcat(const Variable& x, int64_t group);

}  // namespace flexgraph

#endif  // SRC_CORE_FUSED_OPS_H_
