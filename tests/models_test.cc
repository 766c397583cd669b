// End-to-end model tests: every model trains (loss decreases), all execution
// strategies produce identical forward outputs, HDG caching honors policies.
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/data/datasets.h"
#include "src/dist/runtime.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/partition/partition.h"
#include "src/models/gat.h"
#include "src/models/gcn.h"
#include "src/models/gin.h"
#include "src/models/graphsage.h"
#include "src/models/jknet.h"
#include "src/models/magnn.h"
#include "src/models/pgnn.h"
#include "src/models/pinsage.h"
#include "src/tensor/nn.h"
#include "src/tensor/ops_dense.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace {

Dataset SmallHomogeneous() {
  return MakeRedditLike(/*scale=*/0.05, /*seed=*/3);  // ~400 vertices
}

Dataset SmallHetero() {
  return MakeImdbLike(/*scale=*/0.2, /*seed=*/3);  // ~700 vertices
}

GnnModel MakeModelFor(const std::string& name, const Dataset& ds, Rng& rng) {
  if (name == "gcn") {
    GcnConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGcnModel(c, rng);
  }
  if (name == "pinsage") {
    PinSageConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakePinSageModel(c, rng);
  }
  if (name == "magnn") {
    MagnnConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeMagnnModel(c, rng);
  }
  if (name == "pgnn") {
    PgnnConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakePgnnModel(ds.graph.num_vertices(), c, rng);
  }
  if (name == "gat") {
    GatConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGatModel(c, rng);
  }
  if (name == "gin") {
    GinConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGinModel(c, rng);
  }
  if (name.rfind("sage-", 0) == 0) {
    GraphSageConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    c.aggregator = name == "sage-mean"   ? SageAggregator::kMean
                   : name == "sage-max"  ? SageAggregator::kMaxPool
                                         : SageAggregator::kLstm;
    return MakeGraphSageModel(c, rng);
  }
  JkNetConfig c;
  c.in_dim = ds.feature_dim();
  c.num_classes = ds.num_classes;
  return MakeJkNetModel(c, rng);
}

class ModelTrainingSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelTrainingSweep, LossDecreasesOverEpochs) {
  const std::string name = GetParam();
  Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();
  Rng rng(7);
  GnnModel model = MakeModelFor(name, ds, rng);
  Engine engine(ds.graph);
  SgdOptimizer opt(0.05f);

  float first = 0.0f;
  float last = 0.0f;
  for (int epoch = 0; epoch < 12; ++epoch) {
    EpochResult r = engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);
    ASSERT_TRUE(std::isfinite(r.loss)) << name << " epoch " << epoch;
    if (epoch == 0) {
      first = r.loss;
    }
    last = r.loss;
  }
  EXPECT_LT(last, first) << name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelTrainingSweep,
                         ::testing::Values("gcn", "pinsage", "magnn", "pgnn", "jknet", "gin",
                                           "gat", "sage-mean", "sage-max", "sage-lstm"));

class StrategyEquivalenceSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyEquivalenceSweep, ForwardIdenticalAcrossStrategies) {
  const std::string name = GetParam();
  Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();
  Rng model_rng(11);
  GnnModel model = MakeModelFor(name, ds, model_rng);

  Tensor reference;
  for (ExecStrategy strategy :
       {ExecStrategy::kSparse, ExecStrategy::kSparseFused, ExecStrategy::kHybrid}) {
    Engine engine(ds.graph, strategy);
    // Fixed HDG rng so PinSage's stochastic neighbor selection matches.
    Rng hdg_rng(99);
    StageTimes times;
    Tensor logits = engine.Infer(model, ds.features, hdg_rng, &times);
    if (reference.empty()) {
      reference = logits;
    } else {
      EXPECT_TRUE(AllClose(reference, logits, 1e-3f))
          << name << " under " << ExecStrategyName(strategy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, StrategyEquivalenceSweep,
                         ::testing::Values("gcn", "pinsage", "magnn", "pgnn", "jknet", "gin",
                                           "gat", "sage-mean", "sage-max", "sage-lstm"));

class ThreadDeterminismSweep : public ::testing::TestWithParam<const char*> {};

// The execution plan fixes chunk boundaries independently of the pool size,
// so every model's logits and training loss must be bitwise identical at any
// kernel thread count.
TEST_P(ThreadDeterminismSweep, LogitsAndLossBitwiseIdenticalAcrossThreadCounts) {
  const std::string name = GetParam();
  Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();

  Tensor ref_logits;
  float ref_loss = 0.0f;
  for (int threads : {1, 2, 8}) {
    exec::SetNumThreads(threads);
    // Fresh identically-seeded model per pass: training mutates parameters.
    Rng model_rng(13);
    GnnModel model = MakeModelFor(name, ds, model_rng);
    Engine engine(ds.graph);
    Rng hdg_rng(99);
    StageTimes times;
    Tensor logits = engine.Infer(model, ds.features, hdg_rng, &times);

    SgdOptimizer opt(0.05f);
    Rng train_rng(7);
    EpochResult epoch = engine.TrainEpoch(model, ds.features, ds.labels, opt, train_rng);

    if (threads == 1) {
      ref_logits = logits;
      ref_loss = epoch.loss;
    } else {
      EXPECT_TRUE(BitwiseEqual(ref_logits, logits)) << name << " @ " << threads
                                                    << " threads";
      EXPECT_EQ(std::memcmp(&ref_loss, &epoch.loss, sizeof(float)), 0)
          << name << " loss @ " << threads << " threads";
    }
  }
  exec::SetNumThreads(0);
}

// Same contract on the simulated distributed runtime: per-worker plans and
// arenas must not change the math either.
TEST_P(ThreadDeterminismSweep, DistributedLogitsBitwiseIdenticalAcrossThreadCounts) {
  const std::string name = GetParam();
  Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();
  Rng model_rng(13);
  GnnModel model = MakeModelFor(name, ds, model_rng);

  Tensor reference;
  for (int threads : {1, 2, 8}) {
    exec::SetNumThreads(threads);
    DistConfig config;
    config.strategy = ExecStrategy::kHybrid;
    DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 3),
                               config);
    Rng epoch_rng(99);
    Tensor logits;
    runtime.RunEpoch(model, ds.features, epoch_rng, &logits);
    if (threads == 1) {
      reference = logits;
    } else {
      EXPECT_TRUE(BitwiseEqual(reference, logits)) << name << " @ " << threads
                                                   << " threads";
    }
  }
  exec::SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ThreadDeterminismSweep,
                         ::testing::Values("gcn", "pinsage", "magnn", "pgnn", "jknet", "gin",
                                           "gat", "sage-mean", "sage-max", "sage-lstm"));

class IsaDeterminismSweep : public ::testing::TestWithParam<const char*> {};

// The SIMD kernel variants vectorize along the feature dimension only and
// never fuse multiply-adds, so logits and loss must be bitwise identical
// under every ISA level the host supports — at any thread count.
TEST_P(IsaDeterminismSweep, LogitsAndLossBitwiseIdenticalAcrossIsaLevels) {
  const std::string name = GetParam();
  Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();

  Tensor ref_logits;
  float ref_loss = 0.0f;
  bool have_reference = false;
  for (int level = 0; level <= static_cast<int>(simd::IsaLevel::kAvx512); ++level) {
    if (!simd::SetIsa(static_cast<simd::IsaLevel>(level))) {
      continue;  // CPU or build can't run this variant
    }
    for (int threads : {1, 8}) {
      exec::SetNumThreads(threads);
      Rng model_rng(13);
      GnnModel model = MakeModelFor(name, ds, model_rng);
      Engine engine(ds.graph);
      Rng hdg_rng(99);
      StageTimes times;
      Tensor logits = engine.Infer(model, ds.features, hdg_rng, &times);

      SgdOptimizer opt(0.05f);
      Rng train_rng(7);
      EpochResult epoch = engine.TrainEpoch(model, ds.features, ds.labels, opt, train_rng);

      if (!have_reference) {
        ref_logits = logits;
        ref_loss = epoch.loss;
        have_reference = true;
      } else {
        EXPECT_TRUE(BitwiseEqual(ref_logits, logits))
            << name << " @ " << simd::IsaName(static_cast<simd::IsaLevel>(level)) << " x "
            << threads << " threads";
        EXPECT_EQ(std::memcmp(&ref_loss, &epoch.loss, sizeof(float)), 0)
            << name << " loss @ " << simd::IsaName(static_cast<simd::IsaLevel>(level)) << " x "
            << threads << " threads";
      }
    }
  }
  simd::ResetIsa();
  exec::SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, IsaDeterminismSweep,
                         ::testing::Values("gcn", "pinsage", "magnn", "pgnn", "jknet", "gin",
                                           "gat", "sage-mean", "sage-max", "sage-lstm"));

class FuseParitySweep : public ::testing::TestWithParam<const char*> {};

// Fusion's forward is bitwise, so the logits and the first epoch's loss
// match across fuse settings and thread counts; its backward accumulates in a
// different (fixed) order, so later losses are compared within one fuse
// setting only, epoch after epoch, at every thread count. Every model runs,
// covering each bottom-level path: fused segment reduce, edge attention,
// gather+max, gather+LSTM and the hetero schema levels.
TEST_P(FuseParitySweep, LogitsAndLossBitwiseIdenticalAcrossFuseAndThreads) {
  constexpr int kEpochs = 3;
  const std::string name = GetParam();
  Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();

  Tensor ref_logits;
  float ref_first_loss = 0.0f;
  for (const char* fuse : {"off", "on"}) {
    setenv("FLEXGRAPH_FUSE", fuse, 1);
    std::vector<float> ref_losses;
    for (int threads : {1, 8}) {
      exec::SetNumThreads(threads);
      Rng model_rng(13);
      GnnModel model = MakeModelFor(name, ds, model_rng);
      Engine engine(ds.graph);
      Rng hdg_rng(99);
      StageTimes times;
      Tensor logits = engine.Infer(model, ds.features, hdg_rng, &times);

      SgdOptimizer opt(0.05f);
      Rng train_rng(7);
      std::vector<float> losses;
      for (int epoch = 0; epoch < kEpochs; ++epoch) {
        losses.push_back(engine.TrainEpoch(model, ds.features, ds.labels, opt, train_rng).loss);
      }

      if (ref_logits.empty()) {
        ref_logits = logits;
        ref_first_loss = losses.front();
      } else {
        EXPECT_TRUE(BitwiseEqual(ref_logits, logits))
            << name << " @ fuse=" << fuse << " x " << threads << " threads";
        EXPECT_EQ(std::memcmp(&ref_first_loss, losses.data(), sizeof(float)), 0)
            << name << " first loss @ fuse=" << fuse << " x " << threads << " threads";
      }
      if (ref_losses.empty()) {
        ref_losses = losses;
      } else {
        EXPECT_EQ(std::memcmp(ref_losses.data(), losses.data(), kEpochs * sizeof(float)), 0)
            << name << " losses @ fuse=" << fuse << " x " << threads << " threads";
      }
    }
  }
  unsetenv("FLEXGRAPH_FUSE");
  exec::SetNumThreads(0);
}

INSTANTIATE_TEST_SUITE_P(BottomLevelPaths, FuseParitySweep,
                         ::testing::Values("gcn", "pinsage", "magnn", "gat", "sage-max", "pgnn",
                                           "jknet", "gin", "sage-mean", "sage-lstm"));

// The modeled (in-process) and socket (forked real processes) transports
// produce bitwise-identical logits, for a flat and a hierarchical model.
TEST(DistributedParityTest, LogitsBitwiseIdenticalAcrossBackends) {
  for (const std::string name : {"gcn", "magnn"}) {
    Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();
    Rng model_rng(13);
    GnnModel model = MakeModelFor(name, ds, model_rng);

    Tensor reference;
    for (DistBackend backend : {DistBackend::kModeled, DistBackend::kSocket}) {
      DistConfig config;
      config.strategy = ExecStrategy::kHybrid;
      config.backend = backend;
      DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 3), config);
      Rng epoch_rng(99);
      Tensor logits;
      runtime.RunEpoch(model, ds.features, epoch_rng, &logits);
      if (backend == DistBackend::kModeled) {
        reference = logits;
      } else {
        EXPECT_TRUE(BitwiseEqual(reference, logits)) << name << " @ backend=socket";
      }
    }
  }
}

TEST(ModelFlagsTest, LstmAggregatorIsNonCommutative) {
  Dataset ds = SmallHomogeneous();
  Rng rng(21);
  EXPECT_FALSE(MakeModelFor("sage-lstm", ds, rng).bottom_reduce_commutative);
  EXPECT_TRUE(MakeModelFor("sage-mean", ds, rng).bottom_reduce_commutative);
  EXPECT_TRUE(MakeModelFor("gcn", ds, rng).bottom_reduce_commutative);
}

TEST(ModelFlagsTest, DnfaModelsReuseInputGraphAsHdg) {
  Dataset ds = SmallHomogeneous();
  Rng rng(22);
  EXPECT_TRUE(MakeModelFor("gcn", ds, rng).hdg_from_input_graph);
  EXPECT_TRUE(MakeModelFor("gin", ds, rng).hdg_from_input_graph);
  EXPECT_FALSE(MakeModelFor("pinsage", ds, rng).hdg_from_input_graph);
  EXPECT_FALSE(MakeModelFor("magnn", SmallHetero(), rng).hdg_from_input_graph);
}

TEST(EngineTest, StaticPolicyBuildsHdgOnce) {
  Dataset ds = SmallHomogeneous();
  Rng rng(1);
  GnnModel model = MakeModelFor("gcn", ds, rng);
  Engine engine(ds.graph);
  SgdOptimizer opt(0.01f);

  EpochResult first = engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);
  EXPECT_GT(first.times.neighbor_selection, 0.0);
  EpochResult second = engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);
  EXPECT_EQ(second.times.neighbor_selection, 0.0);  // cached
}

TEST(EngineTest, PerEpochPolicyRebuildsHdg) {
  Dataset ds = SmallHomogeneous();
  Rng rng(1);
  GnnModel model = MakeModelFor("pinsage", ds, rng);
  Engine engine(ds.graph);
  SgdOptimizer opt(0.01f);

  EpochResult first = engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);
  EpochResult second = engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);
  EXPECT_GT(first.times.neighbor_selection, 0.0);
  EXPECT_GT(second.times.neighbor_selection, 0.0);  // rebuilt each epoch
}

TEST(EngineTest, GcnLearnsCommunityLabels) {
  // Reddit-like labels are community-aligned and features are class-
  // correlated: a trained GCN must beat random guessing comfortably.
  Dataset ds = SmallHomogeneous();
  Rng rng(5);
  GnnModel model = MakeModelFor("gcn", ds, rng);
  Engine engine(ds.graph);
  SgdOptimizer opt(0.1f);
  for (int epoch = 0; epoch < 30; ++epoch) {
    engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);
  }
  StageTimes times;
  Tensor logits = engine.Infer(model, ds.features, rng, &times);
  const float acc = Accuracy(logits, ds.labels);
  EXPECT_GT(acc, 2.0f / static_cast<float>(ds.num_classes));
}

// MAGNN with its bottom and instance levels spelled out as the
// materializing composition — the [I, d] instance means, their scores, the
// segment softmax, every [I, d] row scaled, then segment-summed — in place
// of the planned AgInstanceAttention. Parameters are drawn from the rng in
// the same order as MakeMagnnModel's layers (attention, then update).
class MaterializingMagnnLayer : public GnnLayer {
 public:
  MaterializingMagnnLayer(int64_t in_dim, int64_t out_dim, bool final_layer, Rng& rng)
      : attention_(in_dim, 1, rng), update_(in_dim, out_dim, rng), final_layer_(final_layer) {}

  Variable Aggregate(const Variable& feats, const HdgAggregator& agg) const override {
    Variable instances = agg.BottomLevel(feats, ReduceKind::kMean);
    const auto slots = agg.hdg().slot_offsets();
    const auto offsets =
        std::make_shared<const std::vector<uint64_t>>(slots.begin(), slots.end());
    Variable weights = AgSegmentSoftmax(attention_.Apply(instances), offsets);
    Variable weighted = AgMulRowScalar(instances, weights);
    return agg.SchemaLevel(AgSegmentReduce(weighted, offsets, ReduceKind::kSum),
                           ReduceKind::kMean);
  }

  Variable Update(const Variable& feats, const Variable& nbr_feats) const override {
    (void)feats;
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

// One Engine::TrainEpoch, spelled out so the parameter gradients can be
// copied before the SGD step consumes them.
struct EpochGradients {
  float loss = 0.0f;
  std::vector<Tensor> grads;
};

EpochGradients TrainEpochKeepingGradients(Engine& engine, const GnnModel& model,
                                          const Dataset& ds, const SgdOptimizer& opt, Rng& rng) {
  EpochGradients result;
  const Hdg& hdg = engine.EnsureHdg(model, rng, nullptr);
  engine.workspace().Reset();
  WorkspaceScope scope(&engine.workspace());
  Variable loss = AgSoftmaxCrossEntropy(engine.Forward(model, hdg, ds.features, nullptr),
                                        ds.labels);
  result.loss = loss.value().At(0, 0);
  loss.Backward();
  std::vector<Variable> params = model.Parameters();
  for (Variable& p : params) {
    result.grads.push_back(p.grad());  // an owned copy of the arena gradient
  }
  opt.Step(params);
  SgdOptimizer::ZeroGrad(params);
  return result;
}

// The planned op reproduces the composition's floats: logits, every
// epoch's loss and all eight parameter gradients, at every ISA level, at 1
// and 4 threads, with fusion on and off, under SA+FA and HA. Gradients
// compare with ±0 equal (DESIGN.md §19: an adopted first gradient keeps the
// sign of an exact zero). Fusion's backward adds in its own order, so each
// fuse setting compares against a reference run with the same setting.
TEST(MagnnTest, FusedInstanceAttentionTrainsBitwiseLikeMaterializingReference) {
  struct Restore {
    ~Restore() {
      unsetenv("FLEXGRAPH_FUSE");
      exec::SetNumThreads(0);
      simd::ResetIsa();
    }
  } restore;
  constexpr int kEpochs = 3;
  const Dataset ds = SmallHetero();
  MagnnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  const auto make_reference = [&] {
    GnnModel reference;
    Rng rng(51);
    GnnModel real = MakeMagnnModel(config, rng);
    reference.name = real.name;
    reference.schema = real.schema;
    reference.cache_policy = real.cache_policy;
    reference.neighbor_udf = real.neighbor_udf;
    Rng reference_rng(51);
    int64_t dim = config.in_dim;
    for (int l = 0; l < config.num_layers; ++l) {
      const bool final_layer = l == config.num_layers - 1;
      const int64_t out = final_layer ? config.num_classes : config.hidden_dim;
      reference.layers.push_back(
          std::make_unique<MaterializingMagnnLayer>(dim, out, final_layer, reference_rng));
      dim = out;
    }
    return reference;
  };

  for (const char* fuse : {"on", "off"}) {
    setenv("FLEXGRAPH_FUSE", fuse, 1);
    for (const ExecStrategy strategy : {ExecStrategy::kSparseFused, ExecStrategy::kHybrid}) {
      for (int level = 0; level <= static_cast<int>(simd::IsaLevel::kAvx512); ++level) {
        if (!simd::SetIsa(static_cast<simd::IsaLevel>(level))) {
          continue;
        }
        for (const int threads : {1, 4}) {
          exec::SetNumThreads(threads);
          const std::string where = std::string("fuse=") + fuse + " " +
                                    ExecStrategyName(strategy) + " " +
                                    simd::IsaName(static_cast<simd::IsaLevel>(level)) + " x" +
                                    std::to_string(threads);
          Rng real_rng(51);
          const GnnModel real = MakeMagnnModel(config, real_rng);
          const GnnModel reference = make_reference();
          Engine real_engine(ds.graph, strategy);
          Engine reference_engine(ds.graph, strategy);
          Rng real_hdg_rng(53);
          Rng reference_hdg_rng(53);
          EXPECT_TRUE(BitwiseEqual(
              reference_engine.Infer(reference, ds.features, reference_hdg_rng, nullptr),
              real_engine.Infer(real, ds.features, real_hdg_rng, nullptr)))
              << where << " logits";
          const SgdOptimizer opt(0.05f);
          for (int epoch = 0; epoch < kEpochs; ++epoch) {
            const EpochGradients want =
                TrainEpochKeepingGradients(reference_engine, reference, ds, opt,
                                           reference_hdg_rng);
            const EpochGradients got =
                TrainEpochKeepingGradients(real_engine, real, ds, opt, real_hdg_rng);
            EXPECT_EQ(std::memcmp(&got.loss, &want.loss, sizeof(float)), 0)
                << where << " epoch " << epoch << ": " << got.loss << " vs " << want.loss;
            ASSERT_EQ(got.grads.size(), 8u);
            ASSERT_EQ(want.grads.size(), 8u);
            for (std::size_t p = 0; p < got.grads.size(); ++p) {
              EXPECT_TRUE(EqualUpToSignedZero(want.grads[p], got.grads[p]))
                  << where << " epoch " << epoch << " param " << p;
            }
          }
        }
      }
    }
  }
}

TEST(EngineTest, StageTimesArePopulated) {
  Dataset ds = SmallHetero();
  Rng rng(2);
  GnnModel model = MakeModelFor("magnn", ds, rng);
  Engine engine(ds.graph);
  StageTimes times;
  engine.Infer(model, ds.features, rng, &times);
  EXPECT_GT(times.neighbor_selection, 0.0);
  EXPECT_GT(times.aggregation, 0.0);
  EXPECT_GT(times.update, 0.0);
}

TEST(EngineTest, ParametersCollectedPerModel) {
  Dataset ds = SmallHomogeneous();
  Rng rng(3);
  // GCN: 2 layers × (W, b) = 4 parameters; MAGNN: 2 layers × (attn W, attn b,
  // W, b) = 8.
  EXPECT_EQ(MakeModelFor("gcn", ds, rng).Parameters().size(), 4u);
  EXPECT_EQ(MakeModelFor("pinsage", ds, rng).Parameters().size(), 4u);
  Dataset hetero = SmallHetero();
  EXPECT_EQ(MakeModelFor("magnn", hetero, rng).Parameters().size(), 8u);
}

}  // namespace
}  // namespace flexgraph
