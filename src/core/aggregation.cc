#include "src/core/aggregation.h"

#include <string>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace flexgraph {

namespace {

const ExecutionPlan& CheckedPlan(const Hdg& hdg, ExecStrategy strategy,
                                 const ExecutionPlan* plan) {
  FLEX_CHECK_MSG(plan != nullptr, "aggregation runs only through a compiled ExecutionPlan");
  FLEX_CHECK_MSG(plan->strategy() == strategy,
                 std::string("plan compiled for ") + ExecStrategyName(plan->strategy()) +
                     ", aggregator runs " + ExecStrategyName(strategy));
  FLEX_CHECK_MSG(plan->flat() == hdg.flat(), "plan and HDG disagree on flatness");
  return *plan;
}

}  // namespace

HdgAggregator::HdgAggregator(const Hdg& hdg, ExecStrategy strategy, AggregationStats* stats,
                             const ExecutionPlan* plan)
    : hdg_(hdg), strategy_(strategy), stats_(stats), plan_(CheckedPlan(hdg, strategy, plan)) {}

Variable HdgAggregator::BottomLevel(const Variable& vertex_feats, ReduceKind kind) const {
  FLEX_TRACE_SPAN("hybrid_agg.bottom",
                  {{"leaf_refs", static_cast<double>(hdg_.leaf_vertex_ids().size())}});
  FLEX_SCOPED_SECONDS("nau.bottom_level_seconds",
                      stats_ != nullptr ? &stats_->bottom_seconds : nullptr);
  return AgIndirectSegmentReduce(vertex_feats, plan_.bottom(), kind, strategy_, stats_);
}

Variable HdgAggregator::BottomLevelMax(const Variable& vertex_feats) const {
  if (stats_ != nullptr) {
    stats_->sparse_rows += hdg_.leaf_vertex_ids().size();
    stats_->materialized_bytes += hdg_.leaf_vertex_ids().size() *
                                  static_cast<uint64_t>(vertex_feats.cols()) * sizeof(float);
  }
  Variable gathered = AgGatherRows(vertex_feats, plan_.bottom().leaf_ids);
  return AgSegmentMax(gathered, plan_.bottom().offsets);
}

Variable HdgAggregator::BottomLevelLstm(const Variable& vertex_feats,
                                        const LstmCell& cell) const {
  if (stats_ != nullptr) {
    stats_->sparse_rows += hdg_.leaf_vertex_ids().size();
    stats_->materialized_bytes += hdg_.leaf_vertex_ids().size() *
                                  static_cast<uint64_t>(vertex_feats.cols()) * sizeof(float);
  }
  // The recurrence is inherently sequential within a segment, so the LSTM
  // takes its own copy of the offsets; the gather index is the plan's leaf ids.
  Variable gathered = AgGatherRows(vertex_feats, plan_.bottom().leaf_ids);
  return AgSegmentLstm(gathered, std::vector<uint64_t>(*plan_.bottom().offsets), cell);
}

Variable HdgAggregator::BottomLevelEdgeAttention(const Variable& transformed,
                                                 const Variable& src_scores,
                                                 const Variable& dst_scores,
                                                 float leaky_slope) const {
  FLEX_CHECK_MSG(hdg_.flat(), "edge attention targets flat (1-hop style) HDGs");
  FLEX_CHECK_EQ(src_scores.cols(), 1);
  FLEX_CHECK_EQ(dst_scores.cols(), 1);
  FLEX_CHECK(plan_.edge_dst_index());
  if (stats_ != nullptr) {
    stats_->sparse_rows += hdg_.leaf_vertex_ids().size();
    stats_->materialized_bytes += hdg_.leaf_vertex_ids().size() *
                                  static_cast<uint64_t>(transformed.cols() + 2) * sizeof(float);
  }
  const LevelPlan& bottom = plan_.bottom();
  Variable edge_scores = AgLeakyRelu(AgAdd(AgGatherRows(src_scores, bottom.leaf_ids),
                                           AgGatherRows(dst_scores, plan_.edge_dst_index())),
                                     leaky_slope);
  Variable weights = AgSegmentSoftmax(edge_scores, bottom.offsets, bottom.chunks);
  Variable messages = AgGatherRows(transformed, bottom.leaf_ids);
  Variable weighted = AgMulRowScalar(messages, weights);
  return AgSegmentReduce(weighted, bottom.offsets, ReduceKind::kSum, bottom.chunks);
}

Variable HdgAggregator::InstanceLevel(const Variable& instance_feats, ReduceKind kind) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no instance level");
  FLEX_CHECK_EQ(instance_feats.rows(), static_cast<int64_t>(hdg_.num_instances()));
  FLEX_TRACE_SPAN("hybrid_agg.instance",
                  {{"instances", static_cast<double>(instance_feats.rows())}});
  const LevelPlan& inst = plan_.instance();
  if (stats_ != nullptr) {
    stats_->sparse_rows += static_cast<uint64_t>(instance_feats.rows());
  }
  if (strategy_ == ExecStrategy::kSparse) {
    // Scatter with an explicit index tensor, as a sparse-only runtime would.
    if (stats_ != nullptr) {
      stats_->materialized_bytes += inst.scatter_index->size() * sizeof(uint32_t);
    }
    return AgScatter(instance_feats, inst.scatter_index, inst.num_segments, kind);
  }
  return AgSegmentReduce(instance_feats, inst.offsets, kind, inst.chunks);
}

Variable HdgAggregator::InstanceLevelAttention(const Variable& instance_feats,
                                               const Variable& scores) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no instance level");
  FLEX_CHECK_EQ(scores.rows(), instance_feats.rows());
  FLEX_CHECK_EQ(scores.cols(), 1);
  if (stats_ != nullptr) {
    stats_->sparse_rows += static_cast<uint64_t>(instance_feats.rows());
  }
  const LevelPlan& inst = plan_.instance();
  Variable weights = AgSegmentSoftmax(scores, inst.offsets, inst.chunks);
  Variable weighted = AgMulRowScalar(instance_feats, weights);
  return AgSegmentReduce(weighted, inst.offsets, ReduceKind::kSum, inst.chunks);
}

Variable HdgAggregator::InstanceAttention(const Variable& vertex_feats,
                                          const Linear& attention) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no instance level");
  FLEX_CHECK_EQ(attention.out_features(), 1);
  if (strategy_ == ExecStrategy::kSparse) {
    // SA models materialization: the [I, d] instance means, their scores,
    // then the scaled rows.
    Variable instances = BottomLevel(vertex_feats, ReduceKind::kMean);
    return InstanceLevelAttention(instances, attention.Apply(instances));
  }
  FLEX_TRACE_SPAN("hybrid_agg.instance_attention",
                  {{"leaf_refs", static_cast<double>(hdg_.leaf_vertex_ids().size())},
                   {"instances", static_cast<double>(hdg_.num_instances())}});
  FLEX_SCOPED_SECONDS("nau.bottom_level_seconds",
                      stats_ != nullptr ? &stats_->bottom_seconds : nullptr);
  return AgInstanceAttention(vertex_feats, attention.w(), attention.b(), plan_.bottom(),
                             plan_.instance(), stats_);
}

Variable HdgAggregator::SchemaLevel(const Variable& slot_feats, ReduceKind kind) const {
  FLEX_CHECK_MSG(!hdg_.flat(), "flat HDGs have no schema level");
  const int64_t group = hdg_.num_types();
  FLEX_CHECK_EQ(slot_feats.rows(), static_cast<int64_t>(hdg_.num_roots()) * group);
  FLEX_TRACE_SPAN("hybrid_agg.schema", {{"slots", static_cast<double>(slot_feats.rows())}});
  return AgSchemaReduce(slot_feats, plan_.schema(), kind, strategy_, stats_);
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
