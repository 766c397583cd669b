// Gradient checks for every differentiable op: autograd vs. central finite
// differences, plus tape-mechanics tests (accumulation, reuse, topo order,
// requires-grad pruning, first-gradient adoption) and the fused attention-
// weighted segment sum's bitwise parity with the composition it replaces.
#include "src/tensor/autograd.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/engine.h"
#include "src/data/datasets.h"
#include "src/exec/chunks.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/models/gcn.h"
#include "src/models/magnn.h"
#include "src/tensor/nn.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/workspace.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace {

TEST(AutogradTest, MatMulGradient) {
  Rng rng(1);
  Tensor x = RandomTensor(4, 3, rng);
  Tensor w = RandomTensor(3, 5, rng);
  // Gradient w.r.t. x.
  ExpectGradientsMatch(x, [&](const Variable& v) {
    return AgMatMul(v, Variable::Leaf(w));
  });
  // Gradient w.r.t. w.
  ExpectGradientsMatch(w, [&](const Variable& v) {
    return AgMatMul(Variable::Leaf(x), v);
  });
}

TEST(AutogradTest, AddAndBiasGradient) {
  Rng rng(2);
  Tensor a = RandomTensor(3, 4, rng);
  Tensor b = RandomTensor(3, 4, rng);
  ExpectGradientsMatch(a, [&](const Variable& v) { return AgAdd(v, Variable::Leaf(b)); });
  Tensor bias = RandomTensor(1, 4, rng);
  ExpectGradientsMatch(bias, [&](const Variable& v) {
    return AgAddBias(Variable::Leaf(a), v);
  });
}

TEST(AutogradTest, ReluGradient) {
  Rng rng(3);
  // Keep values away from the kink at 0 where finite differences lie.
  Tensor x = RandomTensor(4, 4, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.data()[i]) < 0.15f) {
      x.data()[i] = 0.5f;
    }
  }
  ExpectGradientsMatch(x, [](const Variable& v) { return AgRelu(v); });
}

TEST(AutogradTest, ConcatGradient) {
  Rng rng(4);
  Tensor a = RandomTensor(3, 2, rng);
  Tensor b = RandomTensor(3, 3, rng);
  ExpectGradientsMatch(a, [&](const Variable& v) {
    return AgConcatCols(v, Variable::Leaf(b));
  });
  ExpectGradientsMatch(b, [&](const Variable& v) {
    return AgConcatCols(Variable::Leaf(a), v);
  });
}

TEST(AutogradTest, GatherGradient) {
  Rng rng(5);
  Tensor x = RandomTensor(5, 3, rng);
  std::vector<uint32_t> index = {4, 0, 0, 2};
  ExpectGradientsMatch(x, [&](const Variable& v) { return AgGatherRows(v, index); });
}

TEST(AutogradTest, ScatterSumGradient) {
  Rng rng(6);
  Tensor x = RandomTensor(6, 3, rng);
  std::vector<uint32_t> index = {0, 1, 1, 2, 0, 2};
  ExpectGradientsMatch(x, [&](const Variable& v) {
    return AgScatter(v, index, 3, ReduceKind::kSum);
  });
}

TEST(AutogradTest, ScatterMeanGradient) {
  Rng rng(7);
  Tensor x = RandomTensor(5, 2, rng);
  std::vector<uint32_t> index = {0, 0, 0, 1, 1};
  ExpectGradientsMatch(x, [&](const Variable& v) {
    return AgScatter(v, index, 2, ReduceKind::kMean);
  });
}

TEST(AutogradTest, ScatterMaxRejected) {
  Tensor x(2, 2);
  std::vector<uint32_t> index = {0, 1};
  Variable v = Variable::Leaf(x, true);
  EXPECT_THROW(AgScatter(v, index, 2, ReduceKind::kMax), CheckError);
}

TEST(AutogradTest, SegmentReduceGradients) {
  Rng rng(8);
  Tensor x = RandomTensor(7, 3, rng);
  std::vector<uint64_t> offsets = {0, 3, 3, 7};
  ExpectGradientsMatch(x, [&](const Variable& v) {
    return AgSegmentReduce(v, offsets, ReduceKind::kSum);
  });
  ExpectGradientsMatch(x, [&](const Variable& v) {
    return AgSegmentReduce(v, offsets, ReduceKind::kMean);
  });
}

TEST(AutogradTest, SegmentSoftmaxGradient) {
  Rng rng(9);
  Tensor scores = RandomTensor(6, 1, rng, -2.0f, 2.0f);
  std::vector<uint64_t> offsets = {0, 2, 6};
  ExpectGradientsMatch(scores, [&](const Variable& v) {
    return AgSegmentSoftmax(v, offsets);
  }, 5e-3f, 2e-2f);
}

TEST(AutogradTest, MulRowScalarGradients) {
  Rng rng(10);
  Tensor values = RandomTensor(4, 3, rng);
  Tensor weights = RandomTensor(4, 1, rng);
  ExpectGradientsMatch(values, [&](const Variable& v) {
    return AgMulRowScalar(v, Variable::Leaf(weights));
  });
  ExpectGradientsMatch(weights, [&](const Variable& v) {
    return AgMulRowScalar(Variable::Leaf(values), v);
  });
}

TEST(AutogradTest, GroupSumMeanGradients) {
  Rng rng(11);
  Tensor x = RandomTensor(6, 4, rng);
  ExpectGradientsMatch(x, [](const Variable& v) { return AgGroupSum(v, 3); });
  ExpectGradientsMatch(x, [](const Variable& v) { return AgGroupMean(v, 2); });
}

TEST(AutogradTest, SoftmaxCrossEntropyGradient) {
  Rng rng(12);
  Tensor logits = RandomTensor(5, 4, rng, -2.0f, 2.0f);
  std::vector<uint32_t> labels = {0, 3, 1, 2, 2};
  ExpectGradientsMatch(logits, [&](const Variable& v) {
    return AgSoftmaxCrossEntropy(v, labels);
  }, 5e-3f, 2e-2f);
}

TEST(AutogradTest, LeakyReluGradient) {
  Rng rng(13);
  Tensor x = RandomTensor(4, 4, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.data()[i]) < 0.15f) {
      x.data()[i] = 0.5f;  // keep away from the kink
    }
  }
  ExpectGradientsMatch(x, [](const Variable& v) { return AgLeakyRelu(v, 0.2f); });
}

TEST(AutogradTest, DropoutMaskGatesForwardAndBackward) {
  Rng rng(16);
  Tensor x = Tensor::Full(100, 4, 2.0f);
  Variable v = Variable::Leaf(x, true);
  const float p = 0.4f;
  Variable out = AgDropout(v, p, rng);
  // Survivors are scaled by 1/(1-p); dropped entries are exactly zero.
  int64_t dropped = 0;
  for (int64_t i = 0; i < out.value().numel(); ++i) {
    const float val = out.value().data()[i];
    if (val == 0.0f) {
      ++dropped;
    } else {
      ASSERT_NEAR(val, 2.0f / (1.0f - p), 1e-5f);
    }
  }
  // ~40% dropped, generously bounded.
  EXPECT_GT(dropped, out.value().numel() / 4);
  EXPECT_LT(dropped, out.value().numel() * 3 / 5);

  out.Backward();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float g = v.grad().data()[i];
    const float o = out.value().data()[i];
    if (o == 0.0f) {
      ASSERT_EQ(g, 0.0f);
    } else {
      ASSERT_NEAR(g, 1.0f / (1.0f - p), 1e-5f);
    }
  }
}

TEST(AutogradTest, DropoutZeroProbabilityIsIdentity) {
  Rng rng(17);
  Tensor x = RandomTensor(3, 3, rng);
  Variable v = Variable::Leaf(x);
  Variable out = AgDropout(v, 0.0f, rng);
  EXPECT_TRUE(AllClose(out.value(), x, 0.0f));
}

TEST(AutogradTest, BatchNormForwardNormalizes) {
  Rng rng(14);
  Tensor x = RandomTensor(64, 3, rng, -4.0f, 4.0f);
  Variable gamma = Variable::Leaf(Tensor::Full(1, 3, 1.0f));
  Variable beta = Variable::Leaf(Tensor(1, 3));
  Variable out = AgBatchNorm(Variable::Leaf(x), gamma, beta);
  for (int64_t j = 0; j < 3; ++j) {
    double mean = 0.0;
    double var = 0.0;
    for (int64_t i = 0; i < 64; ++i) {
      mean += out.value().At(i, j);
    }
    mean /= 64.0;
    for (int64_t i = 0; i < 64; ++i) {
      const double d = out.value().At(i, j) - mean;
      var += d * d;
    }
    var /= 64.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(AutogradTest, BatchNormGradients) {
  Rng rng(15);
  Tensor x = RandomTensor(12, 4, rng);
  Tensor gamma = RandomTensor(1, 4, rng, 0.5f, 1.5f);
  Tensor beta = RandomTensor(1, 4, rng);
  ExpectGradientsMatch(x, [&](const Variable& v) {
    return AgBatchNorm(v, Variable::Leaf(gamma), Variable::Leaf(beta));
  }, 5e-3f, 3e-2f);
  ExpectGradientsMatch(gamma, [&](const Variable& v) {
    return AgBatchNorm(Variable::Leaf(x), v, Variable::Leaf(beta));
  }, 5e-3f, 3e-2f);
  ExpectGradientsMatch(beta, [&](const Variable& v) {
    return AgBatchNorm(Variable::Leaf(x), Variable::Leaf(gamma), v);
  }, 5e-3f, 3e-2f);
}

TEST(AutogradTest, GradAccumulatesAcrossUses) {
  // y = x + x → dy/dx = 2.
  Tensor x = Tensor::Full(2, 2, 3.0f);
  Variable v = Variable::Leaf(x, true);
  Variable y = AgAdd(v, v);
  y.Backward();
  EXPECT_TRUE(AllClose(v.grad(), Tensor::Full(2, 2, 2.0f)));
}

TEST(AutogradTest, DeepChainBackwardWorks) {
  // 200 chained adds must not blow the stack (iterative topo sort).
  Tensor x = Tensor::Full(1, 1, 1.0f);
  Variable v = Variable::Leaf(x, true);
  Variable acc = v;
  for (int i = 0; i < 200; ++i) {
    acc = AgAdd(acc, v);
  }
  acc.Backward();
  EXPECT_FLOAT_EQ(v.grad().At(0, 0), 201.0f);
}

TEST(AutogradTest, NoGradLeafStaysUntouched) {
  Tensor x = Tensor::Full(2, 2, 1.0f);
  Variable frozen = Variable::Leaf(x, false);
  Variable trainable = Variable::Leaf(x, true);
  Variable y = AgAdd(frozen, trainable);
  y.Backward();
  EXPECT_TRUE(trainable.grad().SameShape(trainable.value()));
}

// ---- Requires-grad pruning ----

TEST(AutogradTest, NodeWithoutTrainableParentGetsNoClosureAndNoGradient) {
  Rng rng(21);
  Variable x = Variable::Leaf(RandomTensor(3, 4, rng));  // input features
  Variable w = Variable::Leaf(RandomTensor(4, 2, rng), /*requires_grad=*/true);
  Variable frozen = AgScale(AgRelu(x), 2.0f);
  EXPECT_FALSE(frozen.requires_grad());
  EXPECT_FALSE(frozen.node()->backward_fn());
  EXPECT_TRUE(frozen.node()->parents().empty());

  Variable out = AgMatMul(frozen, w);
  EXPECT_TRUE(out.requires_grad());
  ASSERT_TRUE(out.node()->backward_fn());
  out.Backward();
  EXPECT_TRUE(w.node()->has_grad());
  EXPECT_FALSE(frozen.node()->has_grad());
  EXPECT_FALSE(x.node()->has_grad());
}

// ---- First-gradient adoption ----

TEST(AutogradTest, FirstRvalueGradientIsAdoptedConstRefIsCopied) {
  Rng rng(22);
  for (const bool arena : {false, true}) {
    Workspace ws;
    WorkspaceScope scope(arena ? &ws : nullptr);
    AgNode adopted(Tensor(2, 3), /*requires_grad=*/true);
    Tensor g = WsTensorCopy(RandomTensor(2, 3, rng));
    const Tensor expected = g;
    const float* data = g.data();
    adopted.AccumulateGrad(std::move(g));
    EXPECT_EQ(adopted.grad().data(), data) << "arena " << arena;
    EXPECT_TRUE(BitwiseEqual(adopted.grad(), expected));

    AgNode copied(Tensor(2, 3), /*requires_grad=*/true);
    copied.AccumulateGrad(expected);
    EXPECT_NE(copied.grad().data(), expected.data());
    EXPECT_TRUE(BitwiseEqual(copied.grad(), expected));
  }
}

TEST(AutogradTest, FanInThreeGradientMatchesZeroFillPlusSequentialAdds) {
  Rng rng(23);
  const Tensor g1 = RandomTensor(4, 5, rng);
  const Tensor g2 = RandomTensor(4, 5, rng);
  const Tensor g3 = RandomTensor(4, 5, rng);
  Tensor expected(4, 5);
  AddInPlace(expected, g1);
  AddInPlace(expected, g2);
  AddInPlace(expected, g3);
  for (const bool rvalues : {false, true}) {
    AgNode node(Tensor(4, 5), /*requires_grad=*/true);
    if (rvalues) {
      node.AccumulateGrad(Tensor(g1));
      node.AccumulateGrad(Tensor(g2));
      node.AccumulateGrad(Tensor(g3));
    } else {
      node.AccumulateGrad(g1);
      node.AccumulateGrad(g2);
      node.AccumulateGrad(g3);
    }
    EXPECT_TRUE(BitwiseEqual(node.grad(), expected)) << "rvalues " << rvalues;
  }
}

// ---- Pruning parity on full models ----

TEST(AutogradTest, PrunedBackwardMatchesFullBackwardOnTwoLayerModels) {
  for (const std::string name : {"gcn", "magnn"}) {
    const bool magnn = name == "magnn";
    const Dataset ds = magnn ? MakeImdbLike(/*scale=*/0.2, /*seed=*/3)
                             : MakeRedditLike(/*scale=*/0.05, /*seed=*/3);
    Rng model_rng(31);
    GnnModel model;
    if (magnn) {
      MagnnConfig c;
      c.in_dim = ds.feature_dim();
      c.num_classes = ds.num_classes;
      model = MakeMagnnModel(c, model_rng);
    } else {
      GcnConfig c;
      c.in_dim = ds.feature_dim();
      c.num_classes = ds.num_classes;
      model = MakeGcnModel(c, model_rng);
    }
    ASSERT_EQ(model.layers.size(), 2u);
    Engine engine(ds.graph);
    Rng hdg_rng(37);
    const Hdg& hdg = engine.EnsureHdg(model, hdg_rng, nullptr);
    const HdgAggregator agg(hdg, engine.strategy(), nullptr, engine.plan());
    std::vector<Variable> params = model.Parameters();

    // A trainable input leaf forces the backward through every node, as
    // before pruning; a frozen one prunes the layer-0 aggregation backward.
    const auto param_grads = [&](bool input_requires_grad) {
      Variable input = Variable::Leaf(ds.features, input_requires_grad);
      Variable feats = input;
      for (const auto& layer : model.layers) {
        feats = layer->Update(feats, layer->Aggregate(feats, agg));
      }
      AgSoftmaxCrossEntropy(feats, ds.labels).Backward();
      EXPECT_EQ(input.node()->has_grad(), input_requires_grad) << name;
      std::vector<Tensor> grads;
      for (Variable p : params) {
        grads.push_back(p.grad());
      }
      SgdOptimizer::ZeroGrad(params);
      return grads;
    };
    const std::vector<Tensor> pruned = param_grads(false);
    const std::vector<Tensor> full = param_grads(true);
    ASSERT_EQ(pruned.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_TRUE(EqualUpToSignedZero(full[i], pruned[i])) << name << " param " << i;
    }
  }
}

TEST(LinearTest, TrainsToFitLinearTarget) {
  // One Linear layer must fit y = xA + c almost exactly.
  Rng rng(13);
  Tensor x = RandomTensor(64, 4, rng);
  Tensor a = RandomTensor(4, 3, rng);
  Tensor target = MatMul(x, a);

  Linear layer(4, 3, rng);
  std::vector<Variable> params;
  layer.CollectParameters(params);
  SgdOptimizer opt(0.1f);

  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 200; ++step) {
    Variable out = layer.Apply(Variable::Leaf(x));
    // L2 loss; seed the backward pass with dL/d out = 2 (out - target) / n.
    Tensor seed = Scale(Sub(out.value(), target), 2.0f / static_cast<float>(x.rows()));
    out.Backward(seed);
    opt.Step(params);
    SgdOptimizer::ZeroGrad(params);
    const float loss = SumAll(Hadamard(Sub(out.value(), target), Sub(out.value(), target)));
    if (step == 0) {
      first_loss = loss;
    }
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.01f);
}

}  // namespace
}  // namespace flexgraph
