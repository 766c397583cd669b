#include "src/models/gin.h"

#include "src/models/gcn.h"
#include "src/tensor/nn.h"
#include "src/tensor/ops_dense.h"

namespace flexgraph {

namespace {

// out = (1 + ε)·x with a learnable scalar ε ([1,1] parameter).
Variable ScaleByOnePlusEps(const Variable& x, const Variable& eps) {
  const float factor = 1.0f + eps.value().At(0, 0);
  Tensor out = Scale(x.value(), factor);
  auto xn = x.node();
  auto en = eps.node();
  return MakeVariable(std::move(out), {x, eps}, [xn, en, factor](AgNode& self) {
    const Tensor& g = self.grad();
    if (xn->requires_grad()) {
      xn->AccumulateGrad(Scale(g, factor));
    }
    if (en->requires_grad()) {
      // dL/dε = Σ g ⊙ x.
      Tensor ge(1, 1);
      ge.At(0, 0) = SumAll(Hadamard(g, xn->value()));
      en->AccumulateGrad(std::move(ge));
    }
  });
}

class GinLayer : public GnnLayer {
 public:
  GinLayer(int64_t in_dim, int64_t out_dim, float epsilon_init, bool final_layer, Rng& rng)
      : mlp1_(in_dim, out_dim, rng),
        mlp2_(out_dim, out_dim, rng),
        bn_gamma_(Variable::Leaf(Tensor::Full(1, out_dim, 1.0f), /*requires_grad=*/true)),
        bn_beta_(Variable::Leaf(Tensor(1, out_dim), /*requires_grad=*/true)),
        epsilon_(Variable::Leaf(Tensor::Full(1, 1, epsilon_init), /*requires_grad=*/true)),
        final_layer_(final_layer) {}

  Variable Aggregate(const Variable& feats, const HdgAggregator& agg) const override {
    return agg.BottomLevel(feats, ReduceKind::kSum);  // un-normalized by design
  }

  Variable Update(const Variable& feats, const Variable& nbr_feats) const override {
    Variable combined = AgAdd(ScaleByOnePlusEps(feats, epsilon_), nbr_feats);
    // BatchNorm inside the MLP (as in the reference GIN): without it the
    // un-normalized neighborhood sums compound layer over layer and training
    // diverges on dense graphs.
    Variable hidden = AgRelu(AgBatchNorm(mlp1_.Apply(combined), bn_gamma_, bn_beta_));
    Variable out = mlp2_.Apply(hidden);
    return final_layer_ ? out : AgRelu(out);
  }

  void CollectParameters(std::vector<Variable>& params) const override {
    mlp1_.CollectParameters(params);
    mlp2_.CollectParameters(params);
    params.push_back(bn_gamma_);
    params.push_back(bn_beta_);
    params.push_back(epsilon_);
  }

 private:
  Linear mlp1_;
  Linear mlp2_;
  Variable bn_gamma_;
  Variable bn_beta_;
  Variable epsilon_;
  bool final_layer_;
};

}  // namespace

GnnModel MakeGinModel(const GinConfig& config, Rng& rng) {
  FLEX_CHECK_GE(config.num_layers, 1);
  GnnModel model;
  model.name = "gin";
  model.schema = SchemaTree::Flat();
  model.cache_policy = HdgCachePolicy::kStatic;
  model.neighbor_udf = GcnNeighborUdf();
  model.hdg_from_input_graph = true;
  int64_t dim = config.in_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    const bool final_layer = l == config.num_layers - 1;
    const int64_t out = final_layer ? config.num_classes : config.hidden_dim;
    model.layers.push_back(
        std::make_unique<GinLayer>(dim, out, config.epsilon_init, final_layer, rng));
    dim = out;
  }
  return model;
}

}  // namespace flexgraph
