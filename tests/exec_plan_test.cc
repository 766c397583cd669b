// Tests for the planned execution layer: ExecutionPlan compilation (segment
// layout, precompiled index tensors, inverse leaf→segment map, chunk tables),
// the workspace arena's steady-state zero-allocation contract, plan-cache
// invalidation, the mandatory-plan checks, and bitwise determinism of
// full-model forward passes across execution strategies and kernel thread
// counts.
#include "src/exec/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/core/aggregation.h"
#include "src/core/engine.h"
#include "src/core/neighbor_selection.h"
#include "src/data/datasets.h"
#include "src/exec/chunks.h"
#include "src/exec/parallel.h"
#include "src/models/gat.h"
#include "src/models/gcn.h"
#include "src/models/gin.h"
#include "src/models/magnn.h"
#include "src/obs/metrics.h"
#include "src/tensor/nn.h"
#include "src/tensor/workspace.h"
#include "src/util/check.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace {

Dataset SmallHomogeneous() {
  return MakeRedditLike(/*scale=*/0.05, /*seed=*/3);
}

Dataset SmallHetero() {
  return MakeImdbLike(/*scale=*/0.2, /*seed=*/3);
}

GnnModel MakeModelFor(const std::string& name, const Dataset& ds, Rng& rng) {
  if (name == "gcn") {
    GcnConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGcnModel(c, rng);
  }
  if (name == "gin") {
    GinConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGinModel(c, rng);
  }
  if (name == "gat") {
    GatConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGatModel(c, rng);
  }
  MagnnConfig c;
  c.in_dim = ds.feature_dim();
  c.num_classes = ds.num_classes;
  return MakeMagnnModel(c, rng);
}

int64_t ExecCounter(const char* name) {
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : 0;
}

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { exec::SetNumThreads(0); }
};

// ---- Chunk tables ----

TEST(ChunkTest, SegmentChunksCoverAllSegmentsInOrder) {
  Rng rng(5);
  std::vector<uint64_t> offsets = {0};
  for (int s = 0; s < 997; ++s) {
    offsets.push_back(offsets.back() + rng.NextBounded(9));
  }
  const std::vector<int64_t> chunks = MakeSegmentChunks(offsets, kPlanChunkTarget);
  ASSERT_GE(chunks.size(), 2u);
  EXPECT_EQ(chunks.front(), 0);
  EXPECT_EQ(chunks.back(), static_cast<int64_t>(offsets.size()) - 1);
  for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
    // Strictly increasing: every chunk owns at least one whole segment, so a
    // chunk can never straddle a segment boundary.
    EXPECT_LT(chunks[c], chunks[c + 1]);
  }
}

TEST(ChunkTest, ChunkBoundariesIndependentOfThreadCount) {
  ThreadCountGuard guard;
  std::vector<uint64_t> offsets = {0};
  Rng rng(11);
  for (int s = 0; s < 500; ++s) {
    offsets.push_back(offsets.back() + rng.NextBounded(5));
  }
  exec::SetNumThreads(1);
  const std::vector<int64_t> at1 = MakeSegmentChunks(offsets, kPlanChunkTarget);
  exec::SetNumThreads(8);
  const std::vector<int64_t> at8 = MakeSegmentChunks(offsets, kPlanChunkTarget);
  EXPECT_EQ(at1, at8);
}

// ---- Plan compilation ----

TEST(ExecutionPlanTest, BottomLevelLayoutMatchesHdg) {
  Dataset ds = SmallHomogeneous();
  Rng rng(7);
  GnnModel model = MakeModelFor("gcn", ds, rng);
  Hdg hdg = BuildHdgAllVertices(model, ds.graph, rng);
  const ExecutionPlan plan = CompileExecutionPlan("gcn", hdg, ExecStrategy::kHybrid);

  EXPECT_EQ(plan.model_name(), "gcn");
  const auto leaf_span = hdg.leaf_vertex_ids();
  ASSERT_TRUE(plan.bottom().offsets);
  ASSERT_TRUE(plan.bottom().leaf_ids);
  EXPECT_EQ(plan.bottom().leaf_ids->size(), leaf_span.size());
  EXPECT_EQ(plan.bottom().input_rows, static_cast<int64_t>(leaf_span.size()));
  EXPECT_EQ(plan.bottom().offsets->back(), leaf_span.size());
  for (std::size_t i = 0; i < leaf_span.size(); ++i) {
    ASSERT_EQ((*plan.bottom().leaf_ids)[i], leaf_span[i]) << "at leaf " << i;
  }
  // The bottom level reduces over its offsets; it keeps no per-row segment id.
  ASSERT_TRUE(plan.bottom().scatter_index);
  EXPECT_TRUE(plan.bottom().scatter_index->empty());
  EXPECT_GT(plan.planned_bytes(), 0u);
}

TEST(ExecutionPlanTest, InverseMapListsEachLeafOccurrenceInEdgeOrder) {
  Dataset ds = SmallHomogeneous();
  Rng rng(7);
  GnnModel model = MakeModelFor("gcn", ds, rng);
  Hdg hdg = BuildHdgAllVertices(model, ds.graph, rng);
  const ExecutionPlan plan = CompileExecutionPlan("gcn", hdg, ExecStrategy::kHybrid);

  ASSERT_TRUE(plan.bottom().src_offsets);
  ASSERT_TRUE(plan.bottom().src_edge_segments);
  const auto& src_offsets = *plan.bottom().src_offsets;
  const auto& src_segments = *plan.bottom().src_edge_segments;
  const auto& offsets = *plan.bottom().offsets;
  const auto& ids = *plan.bottom().leaf_ids;
  ASSERT_EQ(src_offsets.size(), static_cast<std::size_t>(plan.bottom().src_rows) + 1);
  ASSERT_EQ(src_segments.size(), ids.size());

  // Recompute the inverse by walking edges in ascending order — the exact
  // order the sequential backward scatter-adds in — and compare verbatim:
  // per source, the plan must list that source's segments in the same order.
  std::vector<std::vector<uint32_t>> expected(src_offsets.size() - 1);
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    for (uint64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
      ASSERT_LT(ids[e], expected.size());
      expected[ids[e]].push_back(static_cast<uint32_t>(s));
    }
  }
  for (std::size_t v = 0; v + 1 < src_offsets.size(); ++v) {
    const std::vector<uint32_t> actual(src_segments.begin() + static_cast<std::ptrdiff_t>(src_offsets[v]),
                                       src_segments.begin() + static_cast<std::ptrdiff_t>(src_offsets[v + 1]));
    ASSERT_EQ(actual, expected[v]) << "inverse map differs for source " << v;
  }
}

// ---- Plan cache ----

TEST(ExecutionPlanTest, EngineRecompilesPlanOnModelSwitch) {
  Dataset ds = SmallHomogeneous();
  Rng rng(13);
  GnnModel gcn = MakeModelFor("gcn", ds, rng);
  GnnModel gin = MakeModelFor("gin", ds, rng);

  Engine engine(ds.graph);
  Rng hdg_rng(99);
  EXPECT_EQ(engine.plan(), nullptr);
  engine.EnsureHdg(gcn, hdg_rng, nullptr);
  ASSERT_NE(engine.plan(), nullptr);
  EXPECT_EQ(engine.plan()->model_name(), "gcn");
  const int64_t compiles_after_gcn = ExecCounter("exec.plan_compiles");

  // Same model again: cache holds, no recompilation.
  engine.EnsureHdg(gcn, hdg_rng, nullptr);
  EXPECT_EQ(ExecCounter("exec.plan_compiles"), compiles_after_gcn);

  // Different model: both HDG and plan are rebuilt.
  engine.EnsureHdg(gin, hdg_rng, nullptr);
  ASSERT_NE(engine.plan(), nullptr);
  EXPECT_EQ(engine.plan()->model_name(), "gin");
  EXPECT_GT(ExecCounter("exec.plan_compiles"), compiles_after_gcn);

  engine.InvalidateHdgCache();
  EXPECT_EQ(engine.plan(), nullptr);
}

// ---- Workspace arena ----

TEST(ExecutionPlanTest, SteadyStateEpochsDoZeroKernelHeapAllocation) {
  for (const char* name : {"gcn", "magnn"}) {
    Dataset ds = std::string(name) == "magnn" ? SmallHetero() : SmallHomogeneous();
    Rng rng(17);
    GnnModel model = MakeModelFor(name, ds, rng);
    Engine engine(ds.graph);
    SgdOptimizer opt(0.05f);
    Rng epoch_rng(23);

    // Recording epoch: the arena grows on demand while the plan estimate is
    // validated against reality.
    engine.TrainEpoch(model, ds.features, ds.labels, opt, epoch_rng);
    const uint64_t growth_after_first = engine.workspace().growth_count();
    const std::size_t high_water_after_first = engine.workspace().high_water_bytes();
    EXPECT_GT(engine.workspace().reserved_bytes(), 0u) << name;

    // Steady state: same slabs bump-reused, zero arena growth, zero per-op
    // heap allocations (exec.alloc_count counts every tensor-buffer heap hit
    // inside a workspace scope).
    for (int epoch = 2; epoch <= 4; ++epoch) {
      const int64_t allocs_before = ExecCounter("exec.alloc_count");
      engine.TrainEpoch(model, ds.features, ds.labels, opt, epoch_rng);
      EXPECT_EQ(ExecCounter("exec.alloc_count"), allocs_before)
          << name << " epoch " << epoch << " hit the heap";
      EXPECT_EQ(engine.workspace().growth_count(), growth_after_first)
          << name << " epoch " << epoch << " grew the arena";
      EXPECT_EQ(engine.workspace().high_water_bytes(), high_water_after_first)
          << name << " epoch " << epoch << " raised the high-water mark";
    }
  }
}

// The arena keeps every tensor an epoch allocates until the next Reset, so a
// steady epoch's high-water mark is everything that epoch allocated. MAGNN's
// instance-sized share of it is only the planned instance attention's [I, 1]
// columns — the softmax weights α and the score gradient, per layer — plus
// its per-chunk mean tiles (longest slot × width). No [I, d] tensor exists:
// the op recomputes instance rows instead of storing them (DESIGN.md §20).
// The rest of the epoch is vertex-, slot- and root-sized.
TEST(ExecutionPlanTest, MagnnSteadyEpochArenaStaysWithinShapeBound) {
  Dataset ds = SmallHetero();
  Rng rng(17);
  GnnModel model = MakeModelFor("magnn", ds, rng);
  Engine engine(ds.graph);
  SgdOptimizer opt(0.05f);
  Rng epoch_rng(23);
  for (int epoch = 0; epoch < 3; ++epoch) {
    engine.TrainEpoch(model, ds.features, ds.labels, opt, epoch_rng);
  }
  const Hdg& hdg = engine.EnsureHdg(model, epoch_rng, nullptr);  // static: cache hit
  ASSERT_NE(engine.plan(), nullptr);
  const LevelPlan& bottom = engine.plan()->bottom();
  const LevelPlan& instance = engine.plan()->instance();

  const auto instances = static_cast<int64_t>(hdg.num_instances());
  const auto roots = static_cast<int64_t>(hdg.num_roots());
  const int64_t slots = roots * hdg.num_types();
  const int64_t vertices = static_cast<int64_t>(ds.graph.num_vertices()) +
                           (bottom.fusion != nullptr ? bottom.fusion->num_partials : 0);
  const int64_t d_in = ds.feature_dim();
  const int64_t hidden = MagnnConfig{}.hidden_dim;
  const int64_t classes = ds.num_classes;
  uint64_t longest_slot = 0;
  for (std::size_t s = 0; s + 1 < instance.offsets->size(); ++s) {
    longest_slot = std::max(longest_slot, (*instance.offsets)[s + 1] - (*instance.offsets)[s]);
  }
  const auto chunks = static_cast<int64_t>(instance.chunks->size()) - 1;
  // Floats per shape class, counted tensor by tensor over one epoch.
  const int64_t instance_floats = instances * 4;
  const int64_t tile_floats = chunks * static_cast<int64_t>(longest_slot) * (d_in + hidden);
  const int64_t vertex_floats = vertices * (2 * d_in + 4 * hidden);
  const int64_t slot_floats = slots * 2 * (d_in + hidden);
  const int64_t root_floats = roots * (2 * d_in + 7 * hidden + 5 * classes);
  const double estimate = 4.0 * static_cast<double>(instance_floats + tile_floats +
                                                    vertex_floats + slot_floats + root_floats);
  // 25% headroom for parameter-sized tensors, packed GEMM panels and the
  // arena's cache-line rounding.
  const auto bound = static_cast<std::size_t>(1.25 * estimate);
  EXPECT_LE(engine.workspace().high_water_bytes(), bound)
      << "I=" << instances << " R=" << roots << " vertices=" << vertices;
}

// Every arena element AgInstanceAttention reads — its outputs, the saved α,
// the mean tiles, the score gradient — it wrote first: run over an arena
// whose memory is all NaN, the op reproduces the run over fresh heap
// memory bit for bit, forward and every gradient.
TEST(ExecutionPlanTest, InstanceAttentionWritesArenaMemoryBeforeReadingIt) {
  const Dataset ds = SmallHetero();
  Rng rng(41);
  const GnnModel model = MakeModelFor("magnn", ds, rng);
  const Hdg hdg = BuildHdgAllVertices(model, ds.graph, rng);
  Linear attention(ds.feature_dim(), 1, rng);
  for (const ExecStrategy strategy : {ExecStrategy::kSparseFused, ExecStrategy::kHybrid}) {
    const ExecutionPlan plan = CompileExecutionPlan("magnn", hdg, strategy);
    const HdgAggregator agg(hdg, strategy, nullptr, &plan);
    const Tensor seed = RandomTensor(
        static_cast<int64_t>(hdg.num_roots()) * hdg.num_types(), ds.feature_dim(), rng);
    const auto run = [&] {
      attention.w().ZeroGrad();
      attention.b().ZeroGrad();
      Variable x = Variable::Leaf(ds.features, /*requires_grad=*/true);
      Variable out = agg.InstanceAttention(x, attention);
      out.Backward(seed);
      // Owned copies, taken before the arena is reset.
      return std::vector<Tensor>{out.value(), x.grad(), attention.w().grad(),
                                 attention.b().grad()};
    };
    const std::vector<Tensor> want = run();

    Workspace ws;
    constexpr std::size_t kArenaFloats = std::size_t{16} << 20;
    ws.Reserve(kArenaFloats * sizeof(float));
    {
      WorkspaceScope scope(&ws);
      float* all = ws.AllocateFloats(kArenaFloats);
      std::fill(all, all + kArenaFloats, std::numeric_limits<float>::quiet_NaN());
    }
    ws.Reset();
    std::vector<Tensor> got;
    {
      WorkspaceScope scope(&ws);
      got = run();
    }
    EXPECT_EQ(ws.growth_count(), 1u) << "the op outgrew the poisoned slab";
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(want[i], got[i])) << ExecStrategyName(strategy) << " tensor " << i;
    }
  }
}

TEST(ExecutionPlanTest, WorkspaceReservationComesFromPlanEstimate) {
  Dataset ds = SmallHomogeneous();
  Rng rng(19);
  GnnModel model = MakeModelFor("gcn", ds, rng);
  Engine engine(ds.graph);
  Rng hdg_rng(29);
  engine.EnsureHdg(model, hdg_rng, nullptr);
  ASSERT_NE(engine.plan(), nullptr);
  EXPECT_GE(engine.workspace().reserved_bytes(), engine.plan()->planned_bytes());
}

// ---- The plan is mandatory: no aggregation runs without one ----

TEST(ExecutionPlanTest, AggregatorRejectsNullPlan) {
  Dataset ds = SmallHomogeneous();
  Rng rng(31);
  GnnModel model = MakeModelFor("gcn", ds, rng);
  const Hdg hdg = BuildHdgAllVertices(model, ds.graph, rng);
  EXPECT_THROW(HdgAggregator(hdg, ExecStrategy::kHybrid, nullptr, nullptr), CheckError);
}

TEST(ExecutionPlanTest, AggregatorRejectsPlanForAnotherStrategy) {
  Dataset ds = SmallHetero();
  Rng rng(31);
  GnnModel model = MakeModelFor("magnn", ds, rng);
  const Hdg hdg = BuildHdgAllVertices(model, ds.graph, rng);
  const ExecutionPlan sparse_plan = CompileExecutionPlan("magnn", hdg, ExecStrategy::kSparse);
  EXPECT_THROW(HdgAggregator(hdg, ExecStrategy::kHybrid, nullptr, &sparse_plan), CheckError);
  EXPECT_NO_THROW(HdgAggregator(hdg, ExecStrategy::kSparse, nullptr, &sparse_plan));
}

TEST(ExecutionPlanTest, ForwardRejectsNonCachedHdg) {
  Dataset ds = SmallHomogeneous();
  Rng rng(31);
  GnnModel model = MakeModelFor("gcn", ds, rng);
  Engine engine(ds.graph);
  Rng hdg_rng(37);
  const Hdg& hdg = engine.EnsureHdg(model, hdg_rng, nullptr);
  // Same contents, but not the HDG the engine compiled its plan beside.
  const Hdg copy = hdg;
  EXPECT_THROW(engine.Forward(model, copy, ds.features, nullptr), CheckError);
  EXPECT_NO_THROW(engine.Forward(model, hdg, ds.features, nullptr));
}

// ---- Bitwise determinism: strategies × thread counts, full models ----

class PlanDeterminismSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanDeterminismSweep, LogitsBitwiseAcrossStrategiesAndThreadCounts) {
  ThreadCountGuard guard;
  const std::string name = GetParam();
  Dataset ds = name == "magnn" ? SmallHetero() : SmallHomogeneous();
  Rng model_rng(41);
  GnnModel model = MakeModelFor(name, ds, model_rng);

  Tensor reference;
  for (ExecStrategy strategy :
       {ExecStrategy::kSparse, ExecStrategy::kSparseFused, ExecStrategy::kHybrid}) {
    for (int threads : {1, 2, 8}) {
      exec::SetNumThreads(threads);
      Engine engine(ds.graph, strategy);
      Rng hdg_rng(43);
      StageTimes times;
      Tensor logits = engine.Infer(model, ds.features, hdg_rng, &times);
      if (reference.empty()) {
        reference = logits;
      } else {
        EXPECT_TRUE(BitwiseEqual(reference, logits))
            << name << " under " << ExecStrategyName(strategy) << " with " << threads
            << " threads";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DeterminismModels, PlanDeterminismSweep,
                         ::testing::Values("gcn", "magnn", "gat"));

}  // namespace
}  // namespace flexgraph
