#include "src/models/pinsage.h"

#include <algorithm>

#include "src/graph/random_walk.h"
#include "src/tensor/nn.h"

namespace flexgraph {

namespace {

class PinSageLayer : public GnnLayer {
 public:
  PinSageLayer(int64_t in_dim, int64_t out_dim, bool final_layer, Rng& rng)
      : linear_(2 * in_dim, out_dim, rng), final_layer_(final_layer) {}

  Variable Aggregate(const Variable& feats, const HdgAggregator& agg) const override {
    // Importance pooling: PinSage normalizes the weighted neighbor sum; with
    // uniform importance that is the mean. Same kernel cost as scatter_add.
    return agg.BottomLevel(feats, ReduceKind::kMean);
  }

  Variable Update(const Variable& feats, const Variable& nbr_feats) const override {
    Variable out = linear_.Apply(AgConcatCols(feats, nbr_feats));
    return final_layer_ ? out : AgRelu(out);
  }

  void CollectParameters(std::vector<Variable>& params) const override {
    linear_.CollectParameters(params);
  }

 private:
  Linear linear_;
  bool final_layer_;
};

}  // namespace

NeighborUdf PinSageNeighborUdf(int num_walks, int walk_hops, int top_k) {
  auto select = [num_walks, walk_hops, top_k](const NeighborSelectionContext& ctx,
                                              VertexId root, HdgBuilder& builder) {
    for (const VisitCount& vc : TopKVisited(ctx.graph, root, num_walks, walk_hops, top_k,
                                            ctx.rng)) {
      const VertexId leaves[1] = {vc.vertex};
      builder.AddRecord(root, 0, leaves);
    }
  };
  // One draw per step. Exact unless a walk reaches a vertex with no
  // out-edges and stops early; that costs a chunk re-run, never another HDG.
  const uint64_t steps = static_cast<uint64_t>(std::max(num_walks, 0)) *
                         static_cast<uint64_t>(std::max(walk_hops, 0));
  auto draws = [steps](const CsrGraph& graph, VertexId root) -> uint64_t {
    return graph.OutDegree(root) == 0 ? 0 : steps;
  };
  return NeighborUdf(select, draws);
}

GnnModel MakePinSageModel(const PinSageConfig& config, Rng& rng) {
  FLEX_CHECK_GE(config.num_layers, 1);
  GnnModel model;
  model.name = "pinsage";
  model.schema = SchemaTree::Flat();
  model.cache_policy = HdgCachePolicy::kPerEpoch;  // walks are stochastic
  model.neighbor_udf = PinSageNeighborUdf(config.num_walks, config.walk_hops, config.top_k);
  int64_t dim = config.in_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    const bool final_layer = l == config.num_layers - 1;
    const int64_t out = final_layer ? config.num_classes : config.hidden_dim;
    model.layers.push_back(std::make_unique<PinSageLayer>(dim, out, final_layer, rng));
    dim = out;
  }
  return model;
}

}  // namespace flexgraph
