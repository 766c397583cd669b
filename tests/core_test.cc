// Tests for the hybrid execution layer: strategy equivalence (SA, SA+FA and
// HA must compute identical values), fused-op gradients, the level-wise
// aggregator on the paper's worked example, and levels with no input rows.
// Every level op runs over a compiled ExecutionPlan, as in production.
// Also NeighborSelection's parallel chunks against the serial loop.
#include "src/core/aggregation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fused_ops.h"
#include "src/core/neighbor_selection.h"
#include "src/core/sampling.h"
#include "src/data/datasets.h"
#include "src/exec/chunks.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/exec/verify.h"
#include "src/models/jknet.h"
#include "src/models/magnn.h"
#include "src/models/pinsage.h"
#include "src/obs/metrics.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/ops_sparse.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace {

constexpr ExecStrategy kAllStrategies[] = {ExecStrategy::kSparse, ExecStrategy::kSparseFused,
                                           ExecStrategy::kHybrid};

// Flat HDG over roots 0..R-1 (R = offsets.size() - 1): root r aggregates
// leaf_ids[offsets[r] .. offsets[r+1]).
Hdg FlatHdg(std::span<const VertexId> leaf_ids, std::span<const uint64_t> offsets) {
  std::vector<VertexId> roots(offsets.size() - 1);
  for (std::size_t r = 0; r < roots.size(); ++r) {
    roots[r] = static_cast<VertexId>(r);
  }
  HdgBuilder builder(SchemaTree::Flat(), roots);
  for (std::size_t r = 0; r < roots.size(); ++r) {
    for (uint64_t e = offsets[r]; e < offsets[r + 1]; ++e) {
      builder.AddRecord(roots[r], 0, leaf_ids.subspan(e, 1));
    }
  }
  return builder.Build();
}

// Hierarchical HDG over roots 0..num_roots-1 and `num_types` neighbor types;
// each (root, type) slot holds `per_slot` single-leaf instances.
Hdg HierarchicalHdg(uint32_t num_roots, uint32_t num_types, uint32_t per_slot) {
  std::vector<std::string> types;
  for (uint32_t t = 0; t < num_types; ++t) {
    types.push_back("T" + std::to_string(t));
  }
  std::vector<VertexId> roots(num_roots);
  for (uint32_t r = 0; r < num_roots; ++r) {
    roots[r] = r;
  }
  HdgBuilder builder(SchemaTree::WithLeafTypes(types), roots);
  for (uint32_t r = 0; r < num_roots; ++r) {
    for (uint32_t t = 0; t < num_types; ++t) {
      for (uint32_t i = 0; i < per_slot; ++i) {
        const VertexId leaf[] = {(r + t + i) % num_roots};
        builder.AddRecord(r, t, leaf);
      }
    }
  }
  return builder.Build();
}

TEST(FusedOpsTest, FusedMatchesSparseForward) {
  Rng rng(1);
  Tensor x = RandomTensor(10, 5, rng);
  const std::vector<VertexId> leaf_ids = {0, 3, 3, 9, 1, 2, 2};
  const std::vector<uint64_t> offsets = {0, 2, 2, 5, 7};
  const Hdg hdg = FlatHdg(leaf_ids, offsets);
  const ExecutionPlan sparse_plan = CompileExecutionPlan("test", hdg, ExecStrategy::kSparse);
  const ExecutionPlan fused_plan = CompileExecutionPlan("test", hdg, ExecStrategy::kHybrid);

  for (ReduceKind kind : {ReduceKind::kSum, ReduceKind::kMean}) {
    Variable vx = Variable::Leaf(x);
    Variable sparse = AgIndirectSegmentReduce(vx, sparse_plan.bottom(), kind,
                                              ExecStrategy::kSparse, nullptr);
    Variable fused = AgIndirectSegmentReduce(vx, fused_plan.bottom(), kind,
                                             ExecStrategy::kHybrid, nullptr);
    EXPECT_TRUE(AllClose(sparse.value(), fused.value(), 1e-5f))
        << "kind=" << ReduceKindName(kind);
  }
}

TEST(FusedOpsTest, FusedKernelMaxMin) {
  Tensor x = Tensor::FromRows(3, 1, {5, -2, 7});
  std::vector<VertexId> ids = {0, 1, 2};
  std::vector<uint64_t> offsets = {0, 3};
  EXPECT_FLOAT_EQ(
      FusedSegmentGatherReduce(x, ids, offsets, ReduceKind::kMax).At(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(
      FusedSegmentGatherReduce(x, ids, offsets, ReduceKind::kMin).At(0, 0), -2.0f);
}

TEST(FusedOpsTest, GradientsMatchNumeric) {
  Rng rng(2);
  Tensor x = RandomTensor(8, 4, rng);
  const std::vector<VertexId> leaf_ids = {7, 0, 0, 3, 5, 5};
  const std::vector<uint64_t> offsets = {0, 3, 4, 6};
  const Hdg hdg = FlatHdg(leaf_ids, offsets);
  for (ExecStrategy strategy : {ExecStrategy::kSparse, ExecStrategy::kHybrid}) {
    const ExecutionPlan plan = CompileExecutionPlan("test", hdg, strategy);
    for (ReduceKind kind : {ReduceKind::kSum, ReduceKind::kMean}) {
      ExpectGradientsMatch(x, [&](const Variable& v) {
        return AgIndirectSegmentReduce(v, plan.bottom(), kind, strategy, nullptr);
      });
    }
  }
}

TEST(FusedOpsTest, StatsAccounting) {
  Rng rng(3);
  Tensor x = RandomTensor(6, 8, rng);
  const std::vector<VertexId> leaf_ids = {0, 1, 2, 3};
  const std::vector<uint64_t> offsets = {0, 2, 4};
  const Hdg hdg = FlatHdg(leaf_ids, offsets);

  AggregationStats sparse_stats;
  const ExecutionPlan sparse_plan = CompileExecutionPlan("test", hdg, ExecStrategy::kSparse);
  AgIndirectSegmentReduce(Variable::Leaf(x), sparse_plan.bottom(), ReduceKind::kSum,
                          ExecStrategy::kSparse, &sparse_stats);
  // SA materializes the [4, 8] gathered tensor plus the index.
  EXPECT_EQ(sparse_stats.materialized_bytes, 4 * 8 * sizeof(float) + 4 * sizeof(uint32_t));
  EXPECT_EQ(sparse_stats.sparse_rows, 4u);
  EXPECT_EQ(sparse_stats.fused_rows, 0u);

  AggregationStats fused_stats;
  const ExecutionPlan fused_plan = CompileExecutionPlan("test", hdg, ExecStrategy::kHybrid);
  AgIndirectSegmentReduce(Variable::Leaf(x), fused_plan.bottom(), ReduceKind::kSum,
                          ExecStrategy::kHybrid, &fused_stats);
  EXPECT_EQ(fused_stats.materialized_bytes, 0u);
  EXPECT_EQ(fused_stats.fused_rows, 4u);
}

TEST(SchemaReduceTest, DenseMatchesSparse) {
  Rng rng(4);
  Tensor slots = RandomTensor(12, 5, rng);  // 4 roots × 3 types
  const Hdg hdg = HierarchicalHdg(4, 3, 1);
  const ExecutionPlan dense_plan = CompileExecutionPlan("test", hdg, ExecStrategy::kHybrid);
  const ExecutionPlan sparse_plan = CompileExecutionPlan("test", hdg, ExecStrategy::kSparseFused);
  for (ReduceKind kind : {ReduceKind::kSum, ReduceKind::kMean}) {
    Variable dense = AgSchemaReduce(Variable::Leaf(slots), dense_plan.schema(), kind,
                                    ExecStrategy::kHybrid, nullptr);
    Variable sparse = AgSchemaReduce(Variable::Leaf(slots), sparse_plan.schema(), kind,
                                     ExecStrategy::kSparseFused, nullptr);
    EXPECT_TRUE(AllClose(dense.value(), sparse.value(), 1e-5f));
  }
}

TEST(SchemaReduceTest, DenseGradient) {
  Rng rng(5);
  Tensor slots = RandomTensor(6, 3, rng);  // 3 roots × 2 types
  const ExecutionPlan plan =
      CompileExecutionPlan("test", HierarchicalHdg(3, 2, 1), ExecStrategy::kHybrid);
  ExpectGradientsMatch(slots, [&](const Variable& v) {
    return AgSchemaReduce(v, plan.schema(), ReduceKind::kSum, ExecStrategy::kHybrid, nullptr);
  });
}

TEST(GroupConcatTest, ReshapeAndGradient) {
  Tensor x = Tensor::FromRows(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  Variable out = AgGroupConcat(Variable::Leaf(x, true), 2);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_EQ(out.cols(), 4);
  EXPECT_TRUE(AllClose(out.value(), Tensor::FromRows(2, 4, {1, 2, 3, 4, 5, 6, 7, 8})));
  Rng rng(6);
  Tensor r = RandomTensor(6, 3, rng);
  ExpectGradientsMatch(r, [](const Variable& v) { return AgGroupConcat(v, 3); });
}

// The paper's Figure 3c HDG for MAGNN vertex A, executed level by level with
// hand-computed expectations.
class AggregatorPaperExample : public ::testing::Test {
 protected:
  void SetUp() override {
    HdgBuilder builder(SchemaTree::WithLeafTypes({"MP1", "MP2"}), {0});
    const VertexId p1[] = {0, 3, 2};
    const VertexId p2[] = {0, 4, 1};
    const VertexId p3[] = {0, 5, 6};
    const VertexId p4[] = {0, 7, 6};
    const VertexId p5[] = {0, 7, 8};
    builder.AddRecord(0, 0, p1);
    builder.AddRecord(0, 1, p2);
    builder.AddRecord(0, 1, p3);
    builder.AddRecord(0, 1, p4);
    builder.AddRecord(0, 1, p5);
    hdg_ = builder.Build();
    // Feature of vertex v = v (1-dim), so means are easy to check by hand.
    feats_ = Tensor(9, 1);
    for (int64_t v = 0; v < 9; ++v) {
      feats_.At(v, 0) = static_cast<float>(v);
    }
  }

  Hdg hdg_;
  Tensor feats_;
};

TEST_F(AggregatorPaperExample, BottomLevelMeans) {
  const ExecutionPlan plan = CompileExecutionPlan("magnn", hdg_, ExecStrategy::kHybrid);
  HdgAggregator agg(hdg_, ExecStrategy::kHybrid, nullptr, &plan);
  Variable inst = agg.BottomLevel(Variable::Leaf(feats_), ReduceKind::kMean);
  ASSERT_EQ(inst.rows(), 5);
  // p1 = mean(0,3,2) = 5/3; p2 = mean(0,4,1) = 5/3; p3 = mean(0,5,6) = 11/3;
  // p4 = mean(0,7,6) = 13/3; p5 = mean(0,7,8) = 5.
  EXPECT_NEAR(inst.value().At(0, 0), 5.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(inst.value().At(1, 0), 5.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(inst.value().At(2, 0), 11.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(inst.value().At(3, 0), 13.0f / 3.0f, 1e-5f);
  EXPECT_NEAR(inst.value().At(4, 0), 5.0f, 1e-5f);
}

TEST_F(AggregatorPaperExample, FullHierarchyAllStrategiesAgree) {
  Tensor reference;
  for (ExecStrategy strategy : kAllStrategies) {
    const ExecutionPlan plan = CompileExecutionPlan("magnn", hdg_, strategy);
    HdgAggregator agg(hdg_, strategy, nullptr, &plan);
    Variable inst = agg.BottomLevel(Variable::Leaf(feats_), ReduceKind::kMean);
    Variable slots = agg.InstanceLevel(inst, ReduceKind::kMean);
    Variable root = agg.SchemaLevel(slots, ReduceKind::kMean);
    ASSERT_EQ(root.rows(), 1);
    if (reference.empty()) {
      reference = root.value();
      // MP1 slot = p1 = 5/3; MP2 slot = mean(5/3, 11/3, 13/3, 5) = 44/12;
      // root = mean(5/3, 11/3) — wait: root = mean(MP1, MP2) = (5/3 + 44/12)/2.
      const float mp1 = 5.0f / 3.0f;
      const float mp2 = (5.0f / 3.0f + 11.0f / 3.0f + 13.0f / 3.0f + 5.0f) / 4.0f;
      EXPECT_NEAR(reference.At(0, 0), (mp1 + mp2) / 2.0f, 1e-5f);
    } else {
      EXPECT_TRUE(AllClose(reference, root.value(), 1e-5f))
          << ExecStrategyName(strategy);
    }
  }
}

TEST_F(AggregatorPaperExample, AttentionWeightsSumToOnePerSlot) {
  const ExecutionPlan plan = CompileExecutionPlan("magnn", hdg_, ExecStrategy::kHybrid);
  HdgAggregator agg(hdg_, ExecStrategy::kHybrid, nullptr, &plan);
  Variable inst = agg.BottomLevel(Variable::Leaf(feats_), ReduceKind::kMean);
  // Uniform scores → attention degenerates to the mean.
  Variable scores = Variable::Leaf(Tensor(5, 1));
  Variable attn = agg.InstanceLevelAttention(inst, scores);
  Variable mean = agg.InstanceLevel(inst, ReduceKind::kMean);
  EXPECT_TRUE(AllClose(attn.value(), mean.value(), 1e-5f));
}

// ---- Planned parallel kernels: bitwise determinism across thread counts ----
//
// The chunk table fixes work boundaries in segment space before any thread
// fans out, so the chunked kernels must reproduce the single-thread result
// byte for byte at every pool size. The workloads below are sized well past
// the inline-execution threshold so the parallel paths actually engage.

// Random segmented layout: `segments` segments with fanout 0..max_fanout into
// `universe` source rows.
std::pair<std::vector<VertexId>, std::vector<uint64_t>> RandomSegments(
    Rng& rng, std::size_t segments, std::size_t max_fanout, uint64_t universe) {
  std::vector<VertexId> leaf_ids;
  std::vector<uint64_t> offsets = {0};
  for (std::size_t s = 0; s < segments; ++s) {
    const uint64_t fanout = rng.NextBounded(max_fanout + 1);
    for (uint64_t e = 0; e < fanout; ++e) {
      leaf_ids.push_back(static_cast<VertexId>(rng.NextBounded(universe)));
    }
    offsets.push_back(leaf_ids.size());
  }
  return {std::move(leaf_ids), std::move(offsets)};
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { exec::SetNumThreads(0); }
};

TEST(PlannedKernelTest, FusedReduceBitwiseAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(17);
  Tensor x = RandomTensor(512, 33, rng);
  auto [leaf_ids, offsets] = RandomSegments(rng, 1500, 6, 512);
  const std::vector<int64_t> chunks = MakeSegmentChunks(offsets, kPlanChunkTarget);
  for (ReduceKind kind :
       {ReduceKind::kSum, ReduceKind::kMean, ReduceKind::kMax, ReduceKind::kMin}) {
    exec::SetNumThreads(1);
    const Tensor seq = FusedSegmentGatherReduce(x, leaf_ids, offsets, kind, chunks);
    for (int threads : {2, 8}) {
      exec::SetNumThreads(threads);
      const Tensor par = FusedSegmentGatherReduce(x, leaf_ids, offsets, kind, chunks);
      EXPECT_TRUE(BitwiseEqual(seq, par))
          << ReduceKindName(kind) << " with " << threads << " threads";
    }
  }
}

TEST(PlannedKernelTest, SegmentReduceAndSoftmaxBitwiseAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(23);
  auto [leaf_ids, offsets] = RandomSegments(rng, 1200, 8, 256);
  const auto rows = static_cast<int64_t>(leaf_ids.size());
  Tensor values = RandomTensor(rows, 19, rng);
  Tensor scores = RandomTensor(rows, 1, rng);
  const std::vector<int64_t> chunks = MakeSegmentChunks(offsets, kPlanChunkTarget);

  exec::SetNumThreads(1);
  const Tensor reduce_seq = SegmentReduce(values, offsets, ReduceKind::kSum, chunks);
  const Tensor softmax_seq = SegmentSoftmax(scores, offsets, chunks);
  for (int threads : {2, 8}) {
    exec::SetNumThreads(threads);
    EXPECT_TRUE(
        BitwiseEqual(reduce_seq, SegmentReduce(values, offsets, ReduceKind::kSum, chunks)))
        << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(softmax_seq, SegmentSoftmax(scores, offsets, chunks)))
        << threads << " threads";
  }
}

TEST(PlannedKernelTest, GatherAndMatMulBitwiseAcrossThreadCounts) {
  ThreadCountGuard guard;
  Rng rng(29);
  Tensor x = RandomTensor(700, 48, rng);
  Tensor w = RandomTensor(48, 32, rng);
  std::vector<uint32_t> index;
  for (int i = 0; i < 9000; ++i) {
    index.push_back(static_cast<uint32_t>(rng.NextBounded(700)));
  }
  exec::SetNumThreads(1);
  const Tensor gather_seq = GatherRows(x, index);
  const Tensor matmul_seq = MatMul(x, w);
  for (int threads : {2, 8}) {
    exec::SetNumThreads(threads);
    EXPECT_TRUE(BitwiseEqual(gather_seq, GatherRows(x, index))) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(matmul_seq, MatMul(x, w))) << threads << " threads";
  }
}

// Sequential reference for the indirect reduce's backward: a scatter-add,
// grad_x[leaf_ids[e]] += grad_out[segment(e)] (times 1/width for mean), in
// ascending edge order, through the same vector row kernels.
Tensor ScatterAddBackwardReference(const Tensor& grad_out, std::span<const VertexId> leaf_ids,
                                   std::span<const uint64_t> offsets, ReduceKind kind,
                                   int64_t src_rows) {
  const int64_t d = grad_out.cols();
  Tensor gx(src_rows, d);
  const simd::KernelTable& kt = simd::Kernels();
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    const uint64_t lo = offsets[s];
    const uint64_t hi = offsets[s + 1];
    const float* grow = grad_out.Row(static_cast<int64_t>(s));
    for (uint64_t e = lo; e < hi; ++e) {
      float* dst = gx.Row(static_cast<int64_t>(leaf_ids[e]));
      if (kind == ReduceKind::kMean) {
        kt.axpy_row(dst, grow, 1.0f / static_cast<float>(hi - lo), d);
      } else {
        kt.add_row(dst, grow, d);
      }
    }
  }
  return gx;
}

// The planned bottom level — parallel fused forward plus the parallel
// per-source backward over the inverse leaf→segment map — must match the
// sequential kernels bitwise at every thread count.
TEST(PlannedKernelTest, PlannedIndirectReduceBitwiseMatchesLegacy) {
  ThreadCountGuard guard;
  Rng rng(31);
  const uint64_t universe = 400;
  Tensor x = RandomTensor(static_cast<int64_t>(universe), 21, rng);
  const std::size_t roots = 1300;
  std::vector<VertexId> root_ids(roots);
  for (std::size_t r = 0; r < roots; ++r) {
    root_ids[r] = static_cast<VertexId>(r);
  }
  HdgBuilder builder(SchemaTree::Flat(), root_ids);
  for (std::size_t r = 0; r < roots; ++r) {
    // Flat HDGs carry one leaf per record (GCN-style neighbor lists); some
    // roots get none at all — their slot stays an empty segment.
    const uint64_t fanout = rng.NextBounded(8);
    for (uint64_t e = 0; e < fanout; ++e) {
      const VertexId leaf[] = {static_cast<VertexId>(rng.NextBounded(universe))};
      builder.AddRecord(static_cast<VertexId>(r), 0, leaf);
    }
  }
  const Hdg hdg = builder.Build();
  const auto leaf_ids = hdg.leaf_vertex_ids();
  const auto offsets = hdg.slot_offsets();
  const ExecutionPlan plan =
      CompileExecutionPlan("test", hdg, ExecStrategy::kSparseFused);

  for (ReduceKind kind : {ReduceKind::kSum, ReduceKind::kMean}) {
    // Sequential references.
    exec::SetNumThreads(1);
    const Tensor out_seq = FusedSegmentGatherReduce(x, leaf_ids, offsets, kind);
    Tensor seed = Tensor::Uninitialized(out_seq.rows(), out_seq.cols());
    for (int64_t i = 0; i < seed.numel(); ++i) {
      seed.data()[i] = rng.NextUniform(-1.0f, 1.0f);
    }
    const Tensor grad_seq = ScatterAddBackwardReference(seed, leaf_ids, offsets, kind, x.rows());

    for (int threads : {1, 2, 8}) {
      exec::SetNumThreads(threads);
      Variable leaf_par = Variable::Leaf(x, /*requires_grad=*/true);
      Variable out_par = AgIndirectSegmentReduce(leaf_par, plan.bottom(), kind,
                                                 ExecStrategy::kSparseFused, nullptr);
      out_par.Backward(seed);
      EXPECT_TRUE(BitwiseEqual(out_seq, out_par.value()))
          << ReduceKindName(kind) << " forward, " << threads << " threads";
      EXPECT_TRUE(BitwiseEqual(grad_seq, leaf_par.grad()))
          << ReduceKindName(kind) << " backward, " << threads << " threads";
    }
  }
}

TEST_F(AggregatorPaperExample, FlatHdgRejectsHierarchyLevels) {
  HdgBuilder builder(SchemaTree::Flat(), {0});
  const VertexId leaf[] = {1};
  builder.AddRecord(0, 0, leaf);
  Hdg flat = builder.Build();
  const ExecutionPlan plan = CompileExecutionPlan("gcn", flat, ExecStrategy::kHybrid);
  HdgAggregator agg(flat, ExecStrategy::kHybrid, nullptr, &plan);
  Variable inst = agg.BottomLevel(Variable::Leaf(feats_), ReduceKind::kSum);
  EXPECT_THROW(agg.InstanceLevel(inst, ReduceKind::kSum), CheckError);
  EXPECT_THROW(agg.SchemaLevel(inst, ReduceKind::kSum), CheckError);
}

// ---- Levels with no input rows ----
//
// A small partition can hand a worker roots that have no leaves, or no
// metapath instances at all. Every level method must run over such a plan
// under every strategy, yield all-zero rows and route an all-zero gradient
// back to its input.

bool AllZero(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (t.data()[i] != 0.0f) {
      return false;
    }
  }
  return true;
}

// Runs `level` on a requires-grad leaf over `feats`, expects `rows` all-zero
// output rows, then seeds the backward with ones and expects a zero input
// gradient.
void ExpectZeroRowsAndGradient(const Tensor& feats, int64_t rows, const std::string& what,
                               const std::function<Variable(const Variable&)>& level) {
  Variable leaf = Variable::Leaf(feats, /*requires_grad=*/true);
  Variable out = level(leaf);
  EXPECT_EQ(out.rows(), rows) << what;
  EXPECT_TRUE(AllZero(out.value())) << what;
  out.Backward(Tensor::Full(out.rows(), out.cols(), 1.0f));
  EXPECT_TRUE(AllZero(leaf.grad())) << what;
}

TEST(EmptyLevelTest, FlatRootsWithoutLeaves) {
  Rng rng(11);
  const Tensor feats = RandomTensor(6, 4, rng);
  const LstmCell cell(4, 3, rng);
  const Variable a_src = Variable::Leaf(RandomTensor(4, 1, rng));
  const Variable a_dst = Variable::Leaf(RandomTensor(4, 1, rng));
  const Hdg hdg = HdgBuilder(SchemaTree::Flat(), {0, 2, 5}).Build();
  for (ExecStrategy strategy : kAllStrategies) {
    const std::string name = ExecStrategyName(strategy);
    const ExecutionPlan plan = CompileExecutionPlan("gcn", hdg, strategy);
    const VerifyResult verified = VerifyPlan(plan, hdg, feats.rows());
    EXPECT_TRUE(verified.ok()) << name << "\n" << verified.Summary();
    const HdgAggregator agg(hdg, strategy, nullptr, &plan);
    for (ReduceKind kind : {ReduceKind::kSum, ReduceKind::kMean}) {
      ExpectZeroRowsAndGradient(feats, 3, name + " " + ReduceKindName(kind),
                                [&](const Variable& x) { return agg.BottomLevel(x, kind); });
    }
    ExpectZeroRowsAndGradient(feats, 3, name + " max",
                              [&](const Variable& x) { return agg.BottomLevelMax(x); });
    ExpectZeroRowsAndGradient(feats, 3, name + " lstm",
                              [&](const Variable& x) { return agg.BottomLevelLstm(x, cell); });
    ExpectZeroRowsAndGradient(feats, 3, name + " edge attention", [&](const Variable& x) {
      return agg.BottomLevelEdgeAttention(x, AgMatMul(x, a_src), AgMatMul(x, a_dst));
    });
  }
}

TEST(EmptyLevelTest, HierarchyWithoutInstances) {
  Rng rng(13);
  const Tensor feats = RandomTensor(6, 4, rng);
  const LstmCell cell(4, 3, rng);
  const Variable a_inst = Variable::Leaf(RandomTensor(4, 1, rng));
  const Hdg hdg = HierarchicalHdg(/*num_roots=*/3, /*num_types=*/2, /*per_slot=*/0);
  ASSERT_EQ(hdg.num_instances(), 0u);
  for (ExecStrategy strategy : kAllStrategies) {
    const std::string name = ExecStrategyName(strategy);
    const ExecutionPlan plan = CompileExecutionPlan("magnn", hdg, strategy);
    const VerifyResult verified = VerifyPlan(plan, hdg, feats.rows());
    EXPECT_TRUE(verified.ok()) << name << "\n" << verified.Summary();
    const HdgAggregator agg(hdg, strategy, nullptr, &plan);
    ExpectZeroRowsAndGradient(feats, 3, name + " mean levels", [&](const Variable& x) {
      Variable inst = agg.BottomLevel(x, ReduceKind::kMean);
      return agg.SchemaLevel(agg.InstanceLevel(inst, ReduceKind::kMean), ReduceKind::kMean);
    });
    ExpectZeroRowsAndGradient(feats, 3, name + " attention + concat", [&](const Variable& x) {
      Variable inst = agg.BottomLevel(x, ReduceKind::kSum);
      return agg.SchemaLevelConcat(agg.InstanceLevelAttention(inst, AgMatMul(inst, a_inst)));
    });
    ExpectZeroRowsAndGradient(feats, 3, name + " max", [&](const Variable& x) {
      Variable inst = agg.BottomLevelMax(x);
      return agg.SchemaLevel(agg.InstanceLevel(inst, ReduceKind::kSum), ReduceKind::kSum);
    });
    ExpectZeroRowsAndGradient(feats, 3, name + " lstm", [&](const Variable& x) {
      Variable inst = agg.BottomLevelLstm(x, cell);
      return agg.SchemaLevel(agg.InstanceLevel(inst, ReduceKind::kMean), ReduceKind::kMean);
    });
  }
}

// ---- NeighborSelection: parallel chunks on the serial random stream ----

// BuildHdgForRoots as a plain serial loop: one builder, one stream, root by
// root. The parallel selection must reproduce it bitwise.
Hdg SerialSelection(const GnnModel& model, const CsrGraph& graph,
                    const std::vector<VertexId>& roots, Rng& rng) {
  HdgBuilder builder(model.schema, roots);
  NeighborSelectionContext ctx{graph, rng};
  for (VertexId root : roots) {
    model.neighbor_udf(ctx, root, builder);
  }
  return builder.Build();
}

template <typename A, typename B>
bool SameSpan(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

::testing::AssertionResult SameHdg(const Hdg& got, const Hdg& want) {
  if (got.flat() != want.flat()) {
    return ::testing::AssertionFailure() << "flat " << got.flat() << " vs " << want.flat();
  }
  if (!SameSpan(got.roots(), want.roots())) {
    return ::testing::AssertionFailure() << "roots differ";
  }
  if (!SameSpan(got.slot_offsets(), want.slot_offsets())) {
    return ::testing::AssertionFailure() << "slot_offsets differ";
  }
  if (!SameSpan(got.instance_leaf_offsets(), want.instance_leaf_offsets())) {
    return ::testing::AssertionFailure() << "instance_leaf_offsets differ";
  }
  if (!SameSpan(got.leaf_vertex_ids(), want.leaf_vertex_ids())) {
    return ::testing::AssertionFailure() << "leaf_vertex_ids differ";
  }
  return ::testing::AssertionSuccess();
}

int64_t CounterValue(const char* name) {
  return obs::MetricRegistry::Get().GetCounter(name).value();
}

// Directed graph over three vertex types. About `dead_fraction` of the
// vertices have no out-edges: roots whose walks cannot start, and walks
// that stop mid-way.
CsrGraph SelectionGraph(VertexId n, double dead_fraction, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n, 3);
  for (VertexId v = 0; v < n; ++v) {
    b.SetVertexType(v, static_cast<VertexType>(rng.NextBounded(3)));
  }
  for (VertexId v = 0; v < n; ++v) {
    if (rng.NextDouble() < dead_fraction) {
      continue;
    }
    const uint64_t degree = 2 + rng.NextBounded(12);
    for (uint64_t e = 0; e < degree; ++e) {
      b.AddEdge(v, static_cast<VertexId>(rng.NextBounded(n)));
    }
  }
  return b.Build();
}

GnnModel SelectionModel(const std::string& name, SchemaTree schema, NeighborUdf udf) {
  GnnModel model;
  model.name = name;
  model.schema = std::move(schema);
  model.neighbor_udf = std::move(udf);
  return model;
}

std::vector<GnnModel> SelectionModels() {
  const PinSageConfig pinsage;
  std::vector<std::string> metapath_names;
  for (std::size_t i = 0; i < DefaultMetapaths3Type().size(); ++i) {
    metapath_names.push_back("MP" + std::to_string(i + 1));
  }
  std::vector<GnnModel> models;
  models.push_back(SelectionModel(
      "pinsage", SchemaTree::Flat(),
      PinSageNeighborUdf(pinsage.num_walks, pinsage.walk_hops, pinsage.top_k)));
  models.push_back(SelectionModel("uniform8", SchemaTree::Flat(), UniformSampledNeighborUdf(8)));
  models.push_back(SelectionModel("degree2", SchemaTree::Flat(), DegreeBiasedNeighborUdf(2)));
  models.push_back(SelectionModel("magnn", SchemaTree::WithLeafTypes(metapath_names),
                                  MagnnNeighborUdf(DefaultMetapaths3Type(), 32)));
  models.push_back(SelectionModel("jknet", SchemaTree::WithLeafTypes({"hop1", "hop2"}),
                                  JkNetNeighborUdf(2)));
  return models;
}

std::vector<VertexId> AllVertices(VertexId n) {
  std::vector<VertexId> roots(n);
  std::iota(roots.begin(), roots.end(), 0);
  return roots;
}

TEST(NeighborSelectionTest, ParallelChunksMatchSerialLoop) {
  ThreadCountGuard guard;
  constexpr VertexId kVertices = 700;  // three chunks of roots, the last partial
  Rng shuffle_rng(5);
  std::vector<VertexId> shuffled = AllVertices(kVertices);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[shuffle_rng.NextBounded(i + 1)]);
  }
  const std::vector<std::pair<std::string, std::vector<VertexId>>> root_sets = {
      {"all", AllVertices(kVertices)},
      {"shuffled subset", std::vector<VertexId>(shuffled.begin(), shuffled.begin() + 400)},
      {"single root", {shuffled[0]}},
      {"under one chunk", std::vector<VertexId>(shuffled.begin(), shuffled.begin() + 100)},
  };
  const std::vector<GnnModel> models = SelectionModels();
  for (double dead_fraction : {0.0, 0.3}) {
    const CsrGraph graph = SelectionGraph(kVertices, dead_fraction, 11);
    for (const GnnModel& model : models) {
      for (const auto& [set_name, roots] : root_sets) {
        Rng serial_rng(29);
        const Hdg want = SerialSelection(model, graph, roots, serial_rng);
        for (int threads : {1, 2, 4, 8}) {
          exec::SetNumThreads(threads);
          const int64_t reruns_before = CounterValue("nau.selection_reruns");
          Rng rng(29);
          const Hdg got = BuildHdgForRoots(model, graph, roots, rng);
          const std::string what = model.name + ", " + set_name + ", dead ends " +
                                   std::to_string(dead_fraction) + ", " +
                                   std::to_string(threads) + " threads";
          EXPECT_TRUE(SameHdg(got, want)) << what;
          EXPECT_TRUE(rng == serial_rng) << what;
          const int64_t reruns = CounterValue("nau.selection_reruns") - reruns_before;
          if (model.name == "pinsage" && set_name == "all") {
            // Exact without dead ends; mid-walk dead ends make chunks re-run.
            EXPECT_EQ(reruns > 0, dead_fraction > 0.0) << what;
          } else if (dead_fraction == 0.0) {
            EXPECT_EQ(reruns, 0) << what;
          }
        }
      }
    }
  }
}

TEST(NeighborSelectionTest, MisdeclaredDrawsCostRerunsNotResults) {
  ThreadCountGuard guard;
  const CsrGraph graph = SelectionGraph(700, 0.0, 13);
  const std::vector<VertexId> roots = AllVertices(graph.num_vertices());
  const NeighborUdf pinsage = PinSageNeighborUdf(10, 3, 10);
  const std::vector<std::pair<std::string, DrawCountFn>> declarations = {
      {"zero", [](const CsrGraph&, VertexId) -> uint64_t { return 0; }},
      {"twice",
       [pinsage](const CsrGraph& g, VertexId root) { return 2 * pinsage.DeclaredDraws(g, root); }},
  };
  for (const auto& [decl_name, declaration] : declarations) {
    const GnnModel model =
        SelectionModel("pinsage", SchemaTree::Flat(), NeighborUdf(pinsage, declaration));
    Rng serial_rng(31);
    const Hdg want = SerialSelection(model, graph, roots, serial_rng);
    for (int threads : {1, 4}) {
      exec::SetNumThreads(threads);
      const int64_t reruns_before = CounterValue("nau.selection_reruns");
      Rng rng(31);
      const Hdg got = BuildHdgForRoots(model, graph, roots, rng);
      const std::string what = decl_name + ", " + std::to_string(threads) + " threads";
      EXPECT_TRUE(SameHdg(got, want)) << what;
      EXPECT_TRUE(rng == serial_rng) << what;
      EXPECT_GT(CounterValue("nau.selection_reruns") - reruns_before, 0) << what;
    }
  }
}

TEST(NeighborSelectionTest, PinSageOnRedditShapeNeedsNoReruns) {
  ThreadCountGuard guard;
  exec::SetNumThreads(4);
  const Dataset ds = MakeRedditLike(0.5, 7);
  const PinSageConfig config;
  const GnnModel model = SelectionModel(
      "pinsage", SchemaTree::Flat(),
      PinSageNeighborUdf(config.num_walks, config.walk_hops, config.top_k));
  const int64_t chunks_before = CounterValue("nau.selection_chunks");
  const int64_t reruns_before = CounterValue("nau.selection_reruns");
  Rng rng(7);
  Rng serial_rng = rng;
  const Hdg got = BuildHdgAllVertices(model, ds.graph, rng);
  EXPECT_GT(CounterValue("nau.selection_chunks") - chunks_before, 1);
  EXPECT_EQ(CounterValue("nau.selection_reruns") - reruns_before, 0);
  const Hdg want = SerialSelection(model, ds.graph, AllVertices(ds.graph.num_vertices()),
                                   serial_rng);
  EXPECT_TRUE(SameHdg(got, want));
  EXPECT_TRUE(rng == serial_rng);
}

TEST(NeighborSelectionTest, ErrorInMiddleChunkSurfacesAtEveryThreadCount) {
  ThreadCountGuard guard;
  const CsrGraph graph = SelectionGraph(700, 0.0, 17);
  const std::vector<VertexId> roots = AllVertices(graph.num_vertices());
  const NeighborUdf pinsage = PinSageNeighborUdf(10, 3, 10);
  // Root 400 lies in the middle chunk (roots 256..511); a record of a type
  // the flat schema lacks fails AddRecord's check there.
  const NeighborUdf failing(
      [pinsage](const NeighborSelectionContext& ctx, VertexId root, HdgBuilder& builder) {
        pinsage(ctx, root, builder);
        if (root == 400) {
          const VertexId leaf[1] = {0};
          builder.AddRecord(root, 1, leaf);
        }
      },
      [pinsage](const CsrGraph& g, VertexId root) { return pinsage.DeclaredDraws(g, root); });
  const GnnModel model = SelectionModel("failing", SchemaTree::Flat(), failing);
  Rng serial_rng(37);
  EXPECT_THROW(SerialSelection(model, graph, roots, serial_rng), CheckError);
  for (int threads : {1, 2, 4, 8}) {
    exec::SetNumThreads(threads);
    Rng rng(37);
    EXPECT_THROW(BuildHdgForRoots(model, graph, roots, rng), CheckError)
        << threads << " threads";
    // The stream stands where the serial loop's stood when it threw.
    EXPECT_TRUE(rng == serial_rng) << threads << " threads";
  }
}

}  // namespace
}  // namespace flexgraph
