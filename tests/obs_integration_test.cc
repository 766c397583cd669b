// End-to-end observability check: running real epochs through the engine and
// the simulated distributed runtime must populate the stage metrics that the
// CLI's breakdown table and the bench JSON exports read.
#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/data/datasets.h"
#include "src/dist/runtime.h"
#include "src/models/gcn.h"
#include "src/obs/metrics.h"
#include "src/tensor/nn.h"

namespace flexgraph {
namespace {

Dataset SmallDataset() { return MakeDatasetByName("reddit", /*scale=*/0.05, /*seed=*/1); }

GnnModel SmallGcn(const Dataset& ds, Rng& rng) {
  GcnConfig c;
  c.in_dim = ds.feature_dim();
  c.hidden_dim = 16;
  c.num_classes = ds.num_classes;
  return MakeGcnModel(c, rng);
}

uint64_t HistCount(const obs::MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.count;
}

double HistSum(const obs::MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.sum;
}

TEST(ObsIntegrationTest, SingleMachineEpochPopulatesNauStageMetrics) {
  obs::MetricRegistry::Get().Reset();
  Dataset ds = SmallDataset();
  Rng rng(3);
  GnnModel model = SmallGcn(ds, rng);
  Engine engine(ds.graph, ExecStrategy::kHybrid);
  SgdOptimizer opt(0.1f);
  engine.TrainEpoch(model, ds.features, ds.labels, opt, rng);

  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  // One observation per layer per epoch for the forward stages.
  EXPECT_GT(HistCount(snap, "nau.aggregation_seconds"), 0u);
  EXPECT_GT(HistSum(snap, "nau.aggregation_seconds"), 0.0);
  EXPECT_GT(HistCount(snap, "nau.update_seconds"), 0u);
  EXPECT_GT(HistCount(snap, "nau.neighbor_selection_seconds"), 0u);
  EXPECT_GT(HistCount(snap, "nau.backward_seconds"), 0u);
  auto epochs = snap.counters.find("nau.epochs");
  ASSERT_NE(epochs, snap.counters.end());
  EXPECT_EQ(epochs->second, 1);
}

TEST(ObsIntegrationTest, SimulatedDistributedEpochPopulatesCommMetrics) {
  obs::MetricRegistry::Get().Reset();
  Dataset ds = SmallDataset();
  Rng rng(3);
  GnnModel model = SmallGcn(ds, rng);
  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 4), DistConfig{});
  DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng, nullptr);

  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  // A 4-way hash partition of any non-trivial graph has cross-worker edges,
  // so the modeled epoch must ship bytes and record comm/merge/overlap times.
  auto comm_bytes = snap.counters.find("dist.comm_bytes");
  ASSERT_NE(comm_bytes, snap.counters.end());
  EXPECT_GT(comm_bytes->second, 0);
  EXPECT_GT(HistCount(snap, "dist.comm_seconds"), 0u);
  EXPECT_GT(HistSum(snap, "dist.comm_seconds"), 0.0);
  EXPECT_GT(HistCount(snap, "dist.merge_seconds"), 0u);
  EXPECT_GT(HistCount(snap, "pipeline.overlap_seconds"), 0u);
  EXPECT_GT(HistCount(snap, "dist.worker_agg_seconds"), 0u);
  // The per-epoch stats mirror what went into the registry.
  EXPECT_GT(stats.comm_bytes_total, 0u);
  EXPECT_GE(stats.pipeline_overlap_seconds, 0.0);
}

}  // namespace
}  // namespace flexgraph
