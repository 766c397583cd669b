#include "src/core/aggregation.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace flexgraph {

std::vector<uint64_t> HdgAggregator::SlotOffsetsCopy() const {
  const auto offs = hdg_.slot_offsets();
  return {offs.begin(), offs.end()};
}

Variable HdgAggregator::BottomLevel(const Variable& vertex_feats, ReduceKind kind) const {
  FLEX_TRACE_SPAN("hybrid_agg.bottom",
                  {{"leaf_refs", static_cast<double>(hdg_.leaf_vertex_ids().size())}});
  FLEX_SCOPED_SECONDS("nau.bottom_level_seconds",
                      stats_ != nullptr ? &stats_->bottom_seconds : nullptr);
  if (plan_ != nullptr) {
    // Under the locality reorder the plan's gather stream addresses relabeled
    // rows: permute the source tensor once at the level boundary (a bijective
    // row copy, numerically invisible) and reduce over the relabeled arrays.
    if (plan_->bottom().reorder != nullptr) {
      Variable reordered = AgReorderSource(vertex_feats, *plan_->bottom().reorder);
      return AgIndirectSegmentReduce(reordered, plan_->bottom(), kind, strategy_, stats_);
    }
    return AgIndirectSegmentReduce(vertex_feats, plan_->bottom(), kind, strategy_, stats_);
  }
  const auto leaf_span = hdg_.leaf_vertex_ids();
  std::vector<VertexId> leaf_ids(leaf_span.begin(), leaf_span.end());
  std::vector<uint64_t> offsets;
  if (hdg_.flat()) {
    offsets = SlotOffsetsCopy();  // instance level == root level
  } else {
    const auto offs = hdg_.instance_leaf_offsets();
    offsets.assign(offs.begin(), offs.end());
  }
  return AgIndirectSegmentReduce(vertex_feats, std::move(leaf_ids), std::move(offsets),
                                 kind, strategy_, stats_);
}

namespace {

// Leaf ids + bottom-level segment offsets shared by the gather-based paths.
std::pair<std::vector<VertexId>, std::vector<uint64_t>> BottomLayout(const Hdg& hdg) {
  const auto leaf_span = hdg.leaf_vertex_ids();
  std::vector<VertexId> leaf_ids(leaf_span.begin(), leaf_span.end());
  std::vector<uint64_t> offsets;
  if (hdg.flat()) {
    const auto offs = hdg.slot_offsets();
    offsets.assign(offs.begin(), offs.end());
  } else {
    const auto offs = hdg.instance_leaf_offsets();
    offsets.assign(offs.begin(), offs.end());
  }
  return {std::move(leaf_ids), std::move(offsets)};
}

}  // namespace

Variable HdgAggregator::BottomLevelMax(const Variable& vertex_feats) const {
  if (stats_ != nullptr) {
    stats_->sparse_rows += hdg_.leaf_vertex_ids().size();
    stats_->materialized_bytes += hdg_.leaf_vertex_ids().size() *
                                  static_cast<uint64_t>(vertex_feats.cols()) * sizeof(float);
  }
  if (plan_ != nullptr) {
    Variable src = plan_->bottom().reorder != nullptr
                       ? AgReorderSource(vertex_feats, *plan_->bottom().reorder)
                       : vertex_feats;
    Variable gathered = AgGatherRows(src, plan_->bottom().gather_index);
    return AgSegmentMax(gathered, plan_->bottom().offsets);
  }
  auto [leaf_ids, offsets] = BottomLayout(hdg_);
  std::vector<uint32_t> gather_index(leaf_ids.begin(), leaf_ids.end());
  Variable gathered = AgGatherRows(vertex_feats, std::move(gather_index));
  return AgSegmentMax(gathered, std::move(offsets));
}

Variable HdgAggregator::BottomLevelLstm(const Variable& vertex_feats,
                                        const LstmCell& cell) const {
  if (stats_ != nullptr) {
    stats_->sparse_rows += hdg_.leaf_vertex_ids().size();
    stats_->materialized_bytes += hdg_.leaf_vertex_ids().size() *
                                  static_cast<uint64_t>(vertex_feats.cols()) * sizeof(float);
  }
  if (plan_ != nullptr) {
    // The LSTM itself stays on the legacy (vector-copy) path — its recurrence
    // is inherently sequential — but the gather index comes from the plan.
    Variable src = plan_->bottom().reorder != nullptr
                       ? AgReorderSource(vertex_feats, *plan_->bottom().reorder)
                       : vertex_feats;
    Variable gathered = AgGatherRows(src, plan_->bottom().gather_index);
    return AgSegmentLstm(gathered, std::vector<uint64_t>(*plan_->bottom().offsets), cell);
  }
  auto [leaf_ids, offsets] = BottomLayout(hdg_);
  std::vector<uint32_t> gather_index(leaf_ids.begin(), leaf_ids.end());
  Variable gathered = AgGatherRows(vertex_feats, std::move(gather_index));
  return AgSegmentLstm(gathered, std::move(offsets), cell);
}

Variable HdgAggregator::BottomLevelEdgeAttention(const Variable& transformed,
                                                 const Variable& src_scores,
                                                 const Variable& dst_scores,
                                                 float leaky_slope) const {
  FLEX_CHECK_MSG(hdg_.flat(), "edge attention targets flat (1-hop style) HDGs");
  FLEX_CHECK_EQ(src_scores.cols(), 1);
  FLEX_CHECK_EQ(dst_scores.cols(), 1);
  if (stats_ != nullptr) {
    stats_->sparse_rows += hdg_.leaf_vertex_ids().size();
    stats_->materialized_bytes += hdg_.leaf_vertex_ids().size() *
                                  static_cast<uint64_t>(transformed.cols() + 2) * sizeof(float);
  }
  if (plan_ != nullptr) {
    FLEX_CHECK(plan_->edge_dst_index());
    const U32VecPtr src_index = plan_->bottom().gather_index;
    // The reorder relabels source vertices only; edge_dst_index holds root
    // vertex ids into dst_scores and is left in the original numbering.
    const ReorderPlan* rp = plan_->bottom().reorder.get();
    Variable src_sc = rp != nullptr ? AgReorderSource(src_scores, *rp) : src_scores;
    Variable msgs_src = rp != nullptr ? AgReorderSource(transformed, *rp) : transformed;
    Variable edge_scores = AgLeakyRelu(
        AgAdd(AgGatherRows(src_sc, src_index),
              AgGatherRows(dst_scores, plan_->edge_dst_index())),
        leaky_slope);
    Variable weights = AgSegmentSoftmax(edge_scores, plan_->bottom().offsets, plan_->bottom().chunks);
    Variable messages = AgGatherRows(msgs_src, src_index);
    Variable weighted = AgMulRowScalar(messages, weights);
    return AgSegmentReduce(weighted, plan_->bottom().offsets, ReduceKind::kSum,
                           plan_->bottom().chunks);
  }
  auto [leaf_ids, offsets] = BottomLayout(hdg_);

  // Per-edge source gather and per-edge destination broadcast (each root's
  // score repeated over its segment).
  std::vector<uint32_t> src_index(leaf_ids.begin(), leaf_ids.end());
  std::vector<uint32_t> dst_index(leaf_ids.size());
  const auto roots = hdg_.roots();
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    for (uint64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
      dst_index[e] = roots[s];
    }
  }

  Variable edge_scores = AgLeakyRelu(
      AgAdd(AgGatherRows(src_scores, src_index), AgGatherRows(dst_scores, dst_index)),
      leaky_slope);
  Variable weights = AgSegmentSoftmax(edge_scores, offsets);
  Variable messages = AgGatherRows(transformed, std::move(src_index));
  Variable weighted = AgMulRowScalar(messages, weights);
  return AgSegmentReduce(weighted, std::move(offsets), ReduceKind::kSum);
}

Variable HdgAggregator::InstanceLevel(const Variable& instance_feats, ReduceKind kind) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no instance level");
  FLEX_CHECK_EQ(instance_feats.rows(), static_cast<int64_t>(hdg_.num_instances()));
  FLEX_TRACE_SPAN("hybrid_agg.instance",
                  {{"instances", static_cast<double>(instance_feats.rows())}});
  if (plan_ != nullptr && plan_->has_instance()) {
    const LevelPlan& inst = plan_->instance();
    if (strategy_ == ExecStrategy::kSparse) {
      if (stats_ != nullptr) {
        stats_->sparse_rows += static_cast<uint64_t>(instance_feats.rows());
        stats_->materialized_bytes += inst.scatter_index->size() * sizeof(uint32_t);
      }
      return AgScatter(instance_feats, inst.scatter_index, inst.num_segments, kind);
    }
    if (stats_ != nullptr) {
      stats_->sparse_rows += static_cast<uint64_t>(instance_feats.rows());
    }
    return AgSegmentReduce(instance_feats, inst.offsets, kind, inst.chunks);
  }
  std::vector<uint64_t> offsets = SlotOffsetsCopy();
  if (strategy_ == ExecStrategy::kSparse) {
    // Scatter with an explicit index tensor, as a sparse-only runtime would.
    std::vector<uint32_t> index(static_cast<std::size_t>(instance_feats.rows()));
    const int64_t num_slots = static_cast<int64_t>(offsets.size()) - 1;
    for (int64_t s = 0; s < num_slots; ++s) {
      for (uint64_t i = offsets[static_cast<std::size_t>(s)];
           i < offsets[static_cast<std::size_t>(s) + 1]; ++i) {
        index[i] = static_cast<uint32_t>(s);
      }
    }
    if (stats_ != nullptr) {
      stats_->sparse_rows += static_cast<uint64_t>(instance_feats.rows());
      stats_->materialized_bytes += index.size() * sizeof(uint32_t);
    }
    return AgScatter(instance_feats, std::move(index), num_slots, kind);
  }
  if (stats_ != nullptr) {
    stats_->sparse_rows += static_cast<uint64_t>(instance_feats.rows());
  }
  return AgSegmentReduce(instance_feats, std::move(offsets), kind);
}

Variable HdgAggregator::InstanceLevelAttention(const Variable& instance_feats,
                                               const Variable& scores) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no instance level");
  FLEX_CHECK_EQ(scores.rows(), instance_feats.rows());
  FLEX_CHECK_EQ(scores.cols(), 1);
  if (stats_ != nullptr) {
    stats_->sparse_rows += static_cast<uint64_t>(instance_feats.rows());
  }
  if (plan_ != nullptr && plan_->has_instance()) {
    const LevelPlan& inst = plan_->instance();
    Variable weights = AgSegmentSoftmax(scores, inst.offsets, inst.chunks);
    if (strategy_ != ExecStrategy::kSparse) {
      // SA+FA / HA: fused weighted reduce — no [I, d] weighted rows, no [I, d]
      // broadcast gradient, bitwise equal to the composition below.
      return AgSegmentWeightedSum(instance_feats, weights, inst.offsets, inst.chunks);
    }
    // SA models materialization: scale every instance row, then reduce.
    Variable weighted = AgMulRowScalar(instance_feats, weights);
    return AgSegmentReduce(weighted, inst.offsets, ReduceKind::kSum, inst.chunks);
  }
  std::vector<uint64_t> offsets = SlotOffsetsCopy();
  Variable weights = AgSegmentSoftmax(scores, offsets);
  Variable weighted = AgMulRowScalar(instance_feats, weights);
  return AgSegmentReduce(weighted, std::move(offsets), ReduceKind::kSum);
}

Variable HdgAggregator::SchemaLevel(const Variable& slot_feats, ReduceKind kind) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no schema level");
  const int64_t group = hdg_.num_types();
  FLEX_CHECK_EQ(slot_feats.rows(), static_cast<int64_t>(hdg_.num_roots()) * group);
  FLEX_TRACE_SPAN("hybrid_agg.schema", {{"slots", static_cast<double>(slot_feats.rows())}});
  if (plan_ != nullptr && plan_->has_schema()) {
    return AgSchemaReduce(slot_feats, plan_->schema(), kind, strategy_, stats_);
  }
  return AgSchemaReduce(slot_feats, group, kind, strategy_, stats_);
}

Variable HdgAggregator::SchemaLevelConcat(const Variable& slot_feats) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no schema level");
  const int64_t group = hdg_.num_types();
  FLEX_CHECK_EQ(slot_feats.rows(), static_cast<int64_t>(hdg_.num_roots()) * group);
  if (stats_ != nullptr) {
    stats_->dense_rows += static_cast<uint64_t>(slot_feats.rows());
  }
  return AgGroupConcat(slot_feats, group);
}

}  // namespace flexgraph
