#include "src/models/magnn.h"

#include "src/tensor/nn.h"

namespace flexgraph {

namespace {

class MagnnLayer : public GnnLayer {
 public:
  MagnnLayer(int64_t in_dim, int64_t out_dim, bool final_layer, Rng& rng)
      : attention_(in_dim, 1, rng), update_(in_dim, out_dim, rng), final_layer_(final_layer) {}

  Variable Aggregate(const Variable& feats, const HdgAggregator& agg) const override {
    // Levels 3→2→1: instance representation = mean of member-vertex
    // features, then intra-metapath attention — scatter_softmax over learned
    // scores within each (root, metapath) slot, then weighted sum. Under
    // SA+FA/HA one planned op, with no [I, d] instance tensor. Level 1→0:
    // inter-metapath aggregation across the schema tree — a dense
    // reshape+reduce under HA.
    return agg.SchemaLevel(agg.InstanceAttention(feats, attention_), ReduceKind::kMean);
  }

  Variable Update(const Variable& feats, const Variable& nbr_feats) const override {
    (void)feats;  // MAGNN's update consumes the neighborhood representation only
    Variable out = update_.Apply(nbr_feats);
    return final_layer_ ? out : AgRelu(out);
  }

  void CollectParameters(std::vector<Variable>& params) const override {
    attention_.CollectParameters(params);
    update_.CollectParameters(params);
  }

 private:
  Linear attention_;
  Linear update_;
  bool final_layer_;
};

}  // namespace

std::vector<Metapath> DefaultMetapaths3Type() {
  return {
      Metapath{{0, 1, 0}}, Metapath{{0, 2, 0}},  // subject-rooted
      Metapath{{1, 0, 1}}, Metapath{{1, 0, 2}},  // type-1-rooted
      Metapath{{2, 0, 2}}, Metapath{{2, 0, 1}},  // type-2-rooted
  };
}

NeighborUdf MagnnNeighborUdf(std::vector<Metapath> metapaths,
                             std::size_t max_instances_per_path) {
  return [metapaths = std::move(metapaths), max_instances_per_path](
             const NeighborSelectionContext& ctx, VertexId root, HdgBuilder& builder) {
    MetapathMatchOptions options;
    options.max_instances_per_path = max_instances_per_path;
    ForEachMetapathInstance(ctx.graph, root, metapaths, options,
                            [&](uint32_t metapath_index, std::span<const VertexId> instance) {
                              builder.AddRecord(root, metapath_index, instance);
                            });
  };
}

GnnModel MakeMagnnModel(const MagnnConfig& config, Rng& rng) {
  FLEX_CHECK_GE(config.num_layers, 1);
  std::vector<Metapath> metapaths =
      config.metapaths.empty() ? DefaultMetapaths3Type() : config.metapaths;

  GnnModel model;
  model.name = "magnn";
  std::vector<std::string> leaf_names;
  leaf_names.reserve(metapaths.size());
  for (std::size_t i = 0; i < metapaths.size(); ++i) {
    leaf_names.push_back("MP" + std::to_string(i + 1));
  }
  model.schema = SchemaTree::WithLeafTypes(std::move(leaf_names));
  model.cache_policy = HdgCachePolicy::kStatic;  // metapath instances are static
  model.neighbor_udf = MagnnNeighborUdf(std::move(metapaths), config.max_instances_per_path);

  int64_t dim = config.in_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    const bool final_layer = l == config.num_layers - 1;
    const int64_t out = final_layer ? config.num_classes : config.hidden_dim;
    model.layers.push_back(std::make_unique<MagnnLayer>(dim, out, final_layer, rng));
    dim = out;
  }
  return model;
}

}  // namespace flexgraph
