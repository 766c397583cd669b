// HdgAggregator — the level-wise Aggregation executor (paper §3.2 Figure 6 +
// the §4.2 hybrid execution scheme). Models call the level methods bottom-up:
//
//   flat models (GCN, PinSage):   BottomLevel → done ([R, d])
//   hierarchical models:          BottomLevel ([I, d]) → InstanceLevel or
//                                 InstanceLevelAttention ([R·T, d]) →
//                                 SchemaLevel / SchemaLevelConcat ([R, d])
//   MAGNN:                        InstanceAttention ([R·T, d], no [I, d]
//                                 tensor) → SchemaLevel ([R, d])
//
// Which kernel executes each level depends on the strategy:
//   bottom    SA: gather+scatter   FA/HA: fused vertex reduce
//   instance  SA: scatter w/ index otherwise: CSC segment reduce (sparse NN);
//             attention: scale rows, then reduce
//   bottom + instance attention (InstanceAttention)  SA: the materializing
//             composition   FA/HA: one planned op that recomputes instances
//   schema    HA: dense reshape+reduce   otherwise: scatter w/ index
#ifndef SRC_CORE_AGGREGATION_H_
#define SRC_CORE_AGGREGATION_H_

#include "src/exec/exec_strategy.h"
#include "src/core/fused_ops.h"
#include "src/exec/plan.h"
#include "src/hdg/hdg.h"
#include "src/tensor/autograd.h"
#include "src/tensor/lstm.h"
#include "src/tensor/nn.h"

namespace flexgraph {

class HdgAggregator {
 public:
  // `plan` must be compiled from this HDG with this strategy (a null plan, or
  // one compiled for another strategy or HDG shape, fails a FLEX_CHECK): the
  // level methods draw every index, segment offset and chunk boundary from
  // it. `stats` may be null.
  HdgAggregator(const Hdg& hdg, ExecStrategy strategy, AggregationStats* stats,
                const ExecutionPlan* plan);

  const Hdg& hdg() const { return hdg_; }
  ExecStrategy strategy() const { return strategy_; }

  // Bottom level. vertex_feats is [num_graph_vertices, d], indexed by input-
  // graph vertex id. Returns [I, d] for hierarchical HDGs, [R, d] for flat
  // ones (where the instance and root levels coincide).
  Variable BottomLevel(const Variable& vertex_feats, ReduceKind kind) const;

  // Bottom-level max pooling with an exact backward (gradient routed to the
  // arg-max contributor). Runs through the gather + segment-max path —
  // max has no partial-aggregation shortcut to fuse.
  Variable BottomLevelMax(const Variable& vertex_feats) const;

  // Bottom-level LSTM aggregation (order-dependent → non-commutative; the
  // distributed runtime must use batched communication, paper §5). Output is
  // [segments, cell.hidden_dim()].
  Variable BottomLevelLstm(const Variable& vertex_feats, const LstmCell& cell) const;

  // Per-edge attention over a *flat* HDG (GAT): every (src → root) edge gets
  // the score LeakyReLU(src_scores[src] + dst_scores[root]), softmax-ed
  // within the root's neighborhood, and the output is the attention-weighted
  // sum of transformed[src]. transformed/src_scores/dst_scores are indexed by
  // graph vertex id ([n, d] / [n, 1] / [n, 1]).
  Variable BottomLevelEdgeAttention(const Variable& transformed, const Variable& src_scores,
                                    const Variable& dst_scores,
                                    float leaky_slope = 0.2f) const;

  // Instance → slot reduction, [I, d] → [R·T, d]. Hierarchical HDGs only.
  Variable InstanceLevel(const Variable& instance_feats, ReduceKind kind) const;

  // Attention-weighted instance → slot reduction: weights are a segment
  // softmax of `scores` ([I, 1]) within each slot (MAGNN's scatter_softmax
  // step), output is the weighted sum per slot — the [I, d] rows scaled by
  // their weights, then segment-summed, at every strategy.
  Variable InstanceLevelAttention(const Variable& instance_feats, const Variable& scores) const;

  // MAGNN's bottom and instance levels together: instance means of the
  // member vertices' rows (kMean), scores attention.Apply(means) ([I, 1]),
  // then InstanceLevelAttention's weighted slot sum, [R·T, d] out. SA runs
  // exactly that materializing composition; SA+FA and HA run
  // AgInstanceAttention, which writes no [I, d] tensor and is bitwise equal
  // to it. `attention` maps d → 1. Forward time is billed to
  // AggregationStats::bottom_seconds.
  Variable InstanceAttention(const Variable& vertex_feats, const Linear& attention) const;

  // Schema level, [R·T, d] → [R, d].
  Variable SchemaLevel(const Variable& slot_feats, ReduceKind kind) const;
  // Cross-type concat, [R·T, d] → [R, T·d] (JK-Net).
  Variable SchemaLevelConcat(const Variable& slot_feats) const;

 private:
  const Hdg& hdg_;
  ExecStrategy strategy_;
  AggregationStats* stats_;
  const ExecutionPlan& plan_;
};

}  // namespace flexgraph

#endif  // SRC_CORE_AGGREGATION_H_
