// Tests for the structural-invariant verifier (src/exec/verify.h): the
// positive sweep — every HDG and compiled plan across all models and
// execution strategies must verify clean — and the negative paths, where each
// invariant is corrupted in isolation and the verifier must name the exact
// level, array, and element.
#include "src/exec/verify.h"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/data/datasets.h"
#include "src/exec/passes/pass.h"
#include "src/models/gat.h"
#include "src/models/gcn.h"
#include "src/models/gin.h"
#include "src/models/graphsage.h"
#include "src/models/jknet.h"
#include "src/models/magnn.h"
#include "src/models/pgnn.h"
#include "src/models/pinsage.h"
#include "src/tensor/nn.h"

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

// ---- Positive sweep: every model x strategy must verify clean ----

struct SweepCase {
  const char* model;
  ExecStrategy strategy;
};

// gtest prints a parameter it has no printer for as raw bytes — here the
// `model` pointer — into every discovered ctest name, so the names would
// move whenever the binary's string layout does.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.model << '/' << ExecStrategyName(c.strategy);
}

std::string SweepName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name = info.param.model;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  switch (info.param.strategy) {
    case ExecStrategy::kSparse:
      return name + "_sa";
    case ExecStrategy::kSparseFused:
      return name + "_safa";
    default:
      return name + "_ha";
  }
}

class VerifySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(VerifySweep, HdgAndPlanVerifyClean) {
  const SweepCase& param = GetParam();
  Dataset ds = std::string(param.model) == "magnn" ? SmallHetero() : SmallHomogeneous();
  Rng rng(7);
  GnnModel model = MakeModelFor(param.model, ds, rng);
  Engine engine(ds.graph, param.strategy);

  const Hdg& hdg = engine.EnsureHdg(model, rng, nullptr);
  const VerifyResult hdg_result = VerifyHdg(hdg, ds.graph.num_vertices());
  EXPECT_TRUE(hdg_result.ok()) << hdg_result.Summary();

  ASSERT_NE(engine.plan(), nullptr);
  const VerifyResult plan_result =
      VerifyPlan(*engine.plan(), hdg, ds.graph.num_vertices());
  EXPECT_TRUE(plan_result.ok()) << plan_result.Summary();

  // After a real epoch the workspace high water must sit under the estimate.
  SgdOptimizer opt(0.05f);
  engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);
  const VerifyResult ws_result =
      VerifyWorkspace(*engine.plan(), engine.workspace().high_water_bytes());
  EXPECT_TRUE(ws_result.ok()) << ws_result.Summary();
}

constexpr SweepCase kSweepCases[] = {
    {"gcn", ExecStrategy::kSparse},       {"gcn", ExecStrategy::kSparseFused},
    {"gcn", ExecStrategy::kHybrid},       {"pinsage", ExecStrategy::kSparse},
    {"pinsage", ExecStrategy::kSparseFused}, {"pinsage", ExecStrategy::kHybrid},
    {"magnn", ExecStrategy::kSparse},     {"magnn", ExecStrategy::kSparseFused},
    {"magnn", ExecStrategy::kHybrid},     {"pgnn", ExecStrategy::kSparse},
    {"pgnn", ExecStrategy::kSparseFused}, {"pgnn", ExecStrategy::kHybrid},
    {"jknet", ExecStrategy::kSparse},     {"jknet", ExecStrategy::kSparseFused},
    {"jknet", ExecStrategy::kHybrid},     {"gin", ExecStrategy::kSparse},
    {"gin", ExecStrategy::kSparseFused},  {"gin", ExecStrategy::kHybrid},
    {"gat", ExecStrategy::kSparse},       {"gat", ExecStrategy::kSparseFused},
    {"gat", ExecStrategy::kHybrid},       {"sage-mean", ExecStrategy::kSparse},
    {"sage-mean", ExecStrategy::kSparseFused}, {"sage-mean", ExecStrategy::kHybrid},
    {"sage-max", ExecStrategy::kSparse},  {"sage-max", ExecStrategy::kSparseFused},
    {"sage-max", ExecStrategy::kHybrid},  {"sage-lstm", ExecStrategy::kSparse},
    {"sage-lstm", ExecStrategy::kSparseFused}, {"sage-lstm", ExecStrategy::kHybrid},
};

INSTANTIATE_TEST_SUITE_P(AllModelsAllStrategies, VerifySweep,
                         ::testing::ValuesIn(kSweepCases), SweepName);

// ---- Negative paths: corrupt one invariant, expect the exact diagnostic ----

// A minimal consistent flat "HDG": 2 roots, root 0 aggregates leaves {1, 2},
// root 1 aggregates leaf {0}. All negative fixtures corrupt copies of this.
struct FlatFixture {
  std::vector<VertexId> roots = {0, 1};
  std::vector<uint64_t> slot_offsets = {0, 2, 3};
  std::vector<VertexId> leaf_ids = {1, 2, 0};

  HdgView View() const {
    HdgView view;
    view.flat = true;
    view.num_roots = 2;
    view.num_types = 1;
    view.roots = roots;
    view.slot_offsets = slot_offsets;
    view.leaf_vertex_ids = leaf_ids;
    view.schema_bytes = 64;
    view.naive_schema_bytes = 128;  // 2 roots x one shared 64-byte tree
    return view;
  }
};

constexpr uint64_t kNumVertices = 3;

// Asserts exactly one issue with the given coordinates.
void ExpectIssue(const VerifyResult& result, const std::string& level,
                 const std::string& array, int64_t index) {
  ASSERT_EQ(result.issues.size(), 1u) << result.Summary();
  EXPECT_EQ(result.issues[0].level, level) << result.Summary();
  EXPECT_EQ(result.issues[0].array, array) << result.Summary();
  EXPECT_EQ(result.issues[0].index, index) << result.Summary();
}

TEST(VerifyHdgNegative, FixtureIsCleanBeforeCorruption) {
  FlatFixture fx;
  EXPECT_TRUE(VerifyHdg(fx.View(), kNumVertices).ok());
}

TEST(VerifyHdgNegative, OffsetsMustStartAtZero) {
  FlatFixture fx;
  fx.slot_offsets[0] = 1;
  ExpectIssue(VerifyHdg(fx.View(), kNumVertices), "hdg", "slot_offsets", 0);
}

TEST(VerifyHdgNegative, OffsetsMustBeMonotone) {
  FlatFixture fx;
  fx.slot_offsets = {0, 3, 1};  // decreasing step at element 2
  const VerifyResult result = VerifyHdg(fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "hdg");
  EXPECT_EQ(result.issues[0].array, "slot_offsets");
  EXPECT_EQ(result.issues[0].index, 2);
}

TEST(VerifyHdgNegative, OffsetsMustCoverEveryLeaf) {
  FlatFixture fx;
  fx.slot_offsets = {0, 2, 2};  // last entry leaves leaf 2 orphaned
  ExpectIssue(VerifyHdg(fx.View(), kNumVertices), "hdg", "slot_offsets", 2);
}

TEST(VerifyHdgNegative, LeafVertexIdsMustBeInRange) {
  FlatFixture fx;
  fx.leaf_ids[1] = 99;  // vertex 99 does not exist
  ExpectIssue(VerifyHdg(fx.View(), kNumVertices), "hdg", "leaf_vertex_ids", 1);
}

TEST(VerifyHdgNegative, FlatHdgMustElideInstanceLevel) {
  FlatFixture fx;
  const std::vector<uint64_t> bogus = {0, 1};
  HdgView view = fx.View();
  view.instance_leaf_offsets = bogus;
  ExpectIssue(VerifyHdg(view, kNumVertices), "hdg", "instance_leaf_offsets", -1);
}

TEST(VerifyHdgNegative, SchemaTreeMustBeShared) {
  FlatFixture fx;
  HdgView view = fx.View();
  // A duplicated tree doubles the stored bytes; the naive (per-root) total no
  // longer equals num_roots x stored size.
  view.schema_bytes = 128;
  ExpectIssue(VerifyHdg(view, kNumVertices), "hdg", "schema", -1);
}

// Builds the plan draft matching FlatFixture: one bottom level (leaf ids,
// which the kernels also gather by, and no scatter index) and the true
// inverse map.
// Negative tests corrupt the draft, Freeze() it, and verify the frozen plan
// — the frozen ExecutionPlan itself is immutable by design.
PlanDraft MakeFlatDraft(const FlatFixture& fx) {
  PlanDraft draft;
  draft.model_name = "fixture";
  draft.flat = true;
  draft.planned_bytes = 4096;
  draft.planned_dim = 4;

  LevelDraft& b = draft.bottom;
  b.kernel = LevelKernelClass::kGatherSegmentReduce;
  b.num_segments = 2;
  b.input_rows = 3;
  b.offsets = fx.slot_offsets;
  b.leaf_ids = fx.leaf_ids;
  b.chunks = {0, 2};
  // Inverse: vertex 0 feeds segment 1 (edge 2), vertex 1 feeds segment 0
  // (edge 0), vertex 2 feeds segment 0 (edge 1).
  b.src_rows = 3;
  b.src_offsets = {0, 1, 2, 3};
  b.src_edge_segments = {1, 0, 0};
  b.src_chunks = {0, 3};
  return draft;
}

ExecutionPlan MakeFlatPlan(const FlatFixture& fx) {
  return MakeFlatDraft(fx).Freeze();
}

TEST(VerifyPlanNegative, FixtureIsCleanBeforeCorruption) {
  FlatFixture fx;
  const VerifyResult result = VerifyPlan(MakeFlatPlan(fx), fx.View(), kNumVertices);
  EXPECT_TRUE(result.ok()) << result.Summary();
}

TEST(VerifyPlanNegative, ScatterMustMatchOffsets) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  // An instance level over the fixture's three leaf rows: segments {0, 1}
  // and {2}. Row 1 claims segment 1 but lives in segment 0's offset range —
  // the elided in-between Dst property is broken at exactly that row.
  draft.has_instance = true;
  LevelDraft& inst = draft.instance;
  inst.kernel = LevelKernelClass::kSegmentReduce;
  inst.num_segments = 2;
  inst.input_rows = 3;
  inst.offsets = {0, 2, 3};
  inst.scatter_index = {0, 1, 1};
  inst.chunks = {0, 2};
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "instance");
  EXPECT_EQ(result.issues[0].array, "scatter_index");
  EXPECT_EQ(result.issues[0].index, 1);
}

TEST(VerifyPlanNegative, LeafIdsMustBeInRange) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  draft.bottom.leaf_ids = {1, 7, 0};
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "bottom");
  EXPECT_EQ(result.issues[0].array, "leaf_ids");
  EXPECT_EQ(result.issues[0].index, 1);
}

TEST(VerifyPlanNegative, InverseMapMustRecordTheForwardSegments) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  // Vertex 1's only edge scatters to segment 0; the inverse claims 1.
  draft.bottom.src_edge_segments = {1, 1, 0};
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "bottom");
  EXPECT_EQ(result.issues[0].array, "src_edge_segments");
  EXPECT_EQ(result.issues[0].index, 1);  // the inverse slot holding the lie
}

TEST(VerifyPlanNegative, InverseBucketsMustPartitionTheEdges) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  // Vertex 0's bucket advertises two edges; the forward scatter has one, so
  // the cursor walk reads vertex 1's slot out of place.
  draft.bottom.src_offsets = {0, 2, 2, 3};
  draft.bottom.src_edge_segments = {1, 0, 0};
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "bottom");
}

TEST(VerifyPlanNegative, ChunksMustCoverAllSegments) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  draft.bottom.chunks = {0, 1};
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "bottom");
  EXPECT_EQ(result.issues[0].array, "chunks");
  EXPECT_EQ(result.issues[0].index, 1);
}

TEST(VerifyPlanNegative, PlanOffsetsMustMirrorTheHdg) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  // Valid in isolation (same totals) but not the HDG's segmentation.
  draft.bottom.offsets = {0, 1, 3};
  draft.bottom.src_edge_segments = {1, 0, 1};
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "bottom");
  EXPECT_EQ(result.issues[0].array, "offsets");
  EXPECT_EQ(result.issues[0].index, -1);
}

TEST(VerifyPlanNegative, PlanLeafIdsMustMirrorTheHdg) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  // Swap the two leaves of segment 0 in the plan's leaf ids: the inverse map
  // stays self-consistent, but the plan no longer reads the HDG's leaves in
  // the HDG's order.
  draft.bottom.leaf_ids = {2, 1, 0};
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_NO_FATAL_FAILURE(ExpectIssue(result, "bottom", "leaf_ids", 0));
  EXPECT_EQ(result.issues[0].message, "plan leaf ids diverge from the HDG's");
}

TEST(VerifyPlanNegative, FlatnessMustMatch) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  draft.flat = false;
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  bool found = false;
  for (const VerifyIssue& issue : result.issues) {
    found = found || (issue.level == "bottom" && issue.array == "plan");
  }
  EXPECT_TRUE(found) << result.Summary();
}

TEST(VerifyPlanNegative, WorkEstimateMustBeNonZero) {
  FlatFixture fx;
  PlanDraft draft = MakeFlatDraft(fx);
  draft.planned_bytes = 0;
  const ExecutionPlan plan = std::move(draft).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "workspace");
  EXPECT_EQ(result.issues[0].array, "planned_bytes");
}

// ---- Fusion invariants: corrupt one each, expect the exact diagnostic ----

// A flat fixture where fusion is genuinely profitable: both roots aggregate
// the same leaves {1, 2}, so one shared partial (extended id 3) serves both
// rewritten segments.
struct FusedFixture {
  std::vector<VertexId> roots = {0, 1};
  std::vector<uint64_t> slot_offsets = {0, 2, 4};
  std::vector<VertexId> leaf_ids = {1, 2, 1, 2};

  HdgView View() const {
    HdgView view;
    view.flat = true;
    view.num_roots = 2;
    view.num_types = 1;
    view.roots = roots;
    view.slot_offsets = slot_offsets;
    view.leaf_vertex_ids = leaf_ids;
    view.schema_bytes = 64;
    view.naive_schema_bytes = 128;
    return view;
  }
};

PlanDraft MakeFusedDraft(const FusedFixture& fx) {
  PlanDraft draft;
  draft.model_name = "fused-fixture";
  draft.flat = true;
  draft.planned_bytes = 4096;
  draft.planned_dim = 4;

  LevelDraft& b = draft.bottom;
  b.kernel = LevelKernelClass::kFused;
  b.num_segments = 2;
  b.input_rows = 4;
  b.offsets = fx.slot_offsets;
  b.leaf_ids = fx.leaf_ids;
  b.chunks = {0, 2};
  b.src_rows = 3;
  b.src_offsets = {0, 0, 2, 4};
  b.src_edge_segments = {0, 1, 0, 1};
  b.src_chunks = {0, 3};

  draft.has_fusion = true;
  FusionDraft& f = draft.fusion;
  f.base_rows = 3;
  f.num_partials = 1;
  f.partial_offsets = {0, 2};
  f.partial_ids = {1, 2};  // partial 0 = rows 1 + 2
  f.level_ends = {1};
  f.offsets = {0, 1, 2};
  f.ids = {3, 3};  // both segments read the shared partial
  f.chunks = {0, 2};
  f.leaf_refs_before = 4;
  f.leaf_refs_after = 4;  // 2 rewritten refs + 2 build refs
  return draft;
}

TEST(VerifyFusionNegative, FusedFixtureIsCleanBeforeCorruption) {
  FusedFixture fx;
  const ExecutionPlan plan = MakeFusedDraft(fx).Freeze();
  const VerifyResult result = VerifyPlan(plan, fx.View(), kNumVertices);
  EXPECT_TRUE(result.ok()) << result.Summary();
}

TEST(VerifyFusionNegative, SharedPartialMustHaveTwoConsumers) {
  FusedFixture fx;
  PlanDraft draft = MakeFusedDraft(fx);
  // Segment 1 reads row 0 directly instead of the partial: the materialized
  // partial is left with a single consumer — a pure loss, never a valid
  // miner output.
  draft.fusion.ids = {3, 0};
  const ExecutionPlan plan = std::move(draft).Freeze();
  ExpectIssue(VerifyPlan(plan, fx.View(), kNumVertices), "fusion", "partials", 0);
}

TEST(VerifyFusionNegative, PartialDependenciesMustBeAcyclic) {
  FusedFixture fx;
  PlanDraft draft = MakeFusedDraft(fx);
  // Partial 0's build list references extended id 3 — partial 0 itself.
  draft.fusion.partial_ids = {1, 3};
  const ExecutionPlan plan = std::move(draft).Freeze();
  ExpectIssue(VerifyPlan(plan, fx.View(), kNumVertices), "fusion", "partial_ids", 1);
}

TEST(VerifyFusionNegative, RewrittenIndicesMustBeInRange) {
  FusedFixture fx;
  PlanDraft draft = MakeFusedDraft(fx);
  // Extended-id space is [0, base_rows + num_partials) = [0, 4); 9 points at
  // neither an input row nor a partial.
  draft.fusion.ids = {3, 9};
  const ExecutionPlan plan = std::move(draft).Freeze();
  ExpectIssue(VerifyPlan(plan, fx.View(), kNumVertices), "fusion", "ids", 1);
}

TEST(VerifyFusionNegative, RewrittenSegmentsMustExpandToTheOriginalLeaves) {
  FusedFixture fx;
  PlanDraft draft = MakeFusedDraft(fx);
  // Structurally valid (in range, acyclic, two consumers) but segment 1's
  // expansion is {1, 2, 1, 2}, not the original {1, 2}.
  draft.fusion.ids = {3, 3, 3};
  draft.fusion.offsets = {0, 1, 3};
  const ExecutionPlan plan = std::move(draft).Freeze();
  ExpectIssue(VerifyPlan(plan, fx.View(), kNumVertices), "fusion", "ids", 1);
}

TEST(VerifyWorkspaceNegative, HighWaterAboveEstimateIsAnIssue) {
  FlatFixture fx;
  const ExecutionPlan plan = MakeFlatPlan(fx);
  EXPECT_TRUE(VerifyWorkspace(plan, plan.planned_bytes()).ok());
  const VerifyResult result = VerifyWorkspace(plan, plan.planned_bytes() + 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.issues[0].level, "workspace");
  EXPECT_EQ(result.issues[0].array, "planned_bytes");
  EXPECT_EQ(result.issues[0].index, -1);
}

TEST(VerifySummary, FormatsLevelArrayIndexAndMessage) {
  VerifyResult result;
  result.issues.push_back({"bottom", "offsets", 3, "broken"});
  result.issues.push_back({"hdg", "schema", -1, "duplicated"});
  EXPECT_EQ(result.Summary(), "bottom.offsets[3]: broken\nhdg.schema: duplicated\n");
}

}  // namespace
}  // namespace flexgraph
