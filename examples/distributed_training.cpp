// Distributed training walkthrough: partition a graph, run simulated
// shared-nothing epochs, then turn on the paper's two distributed
// optimizations — ADB workload balancing and pipeline processing — and watch
// the aggregation-stage makespan drop.
//
//   build/examples/distributed_training
#include <cstdio>

#include "src/data/datasets.h"
#include "src/dist/adb_driver.h"
#include "src/dist/runtime.h"
#include "src/models/magnn.h"
#include "src/models/pinsage.h"

namespace {

using namespace flexgraph;

// One measured epoch after a warm-up build. Each epoch reports the
// aggregation makespan with pipeline processing and without it.
DistEpochStats MeasureEpoch(const CsrGraph& graph, const Partitioning& parts,
                            const GnnModel& model, const Tensor& features) {
  DistConfig config;
  config.backward_compute_factor = 1.0;  // simulate training epochs
  DistributedRuntime runtime(graph, parts, config);
  Rng rng(5);
  runtime.RunEpoch(model, features, rng, nullptr);  // warm-up build
  return runtime.RunEpoch(model, features, rng, nullptr);
}

}  // namespace

int main() {
  using namespace flexgraph;

  Dataset ds = MakeTwitterLike(/*scale=*/0.25, /*seed=*/13);
  std::printf("graph: |V|=%u |E|=%llu (power law — skewed workload)\n",
              ds.graph.num_vertices(),
              static_cast<unsigned long long>(ds.graph.num_edges()));

  Rng rng(7);
  PinSageConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakePinSageModel(config, rng);

  const uint32_t k = 8;
  Partitioning hash = HashPartition(ds.graph.num_vertices(), k);

  std::printf("\n-- scaling out (hash partitioning, pipeline on) --\n");
  std::printf("%-8s %-14s\n", "workers", "epoch_sec");
  for (uint32_t workers : {1u, 2u, 4u, 8u}) {
    Partitioning p = HashPartition(ds.graph.num_vertices(), workers);
    const double t = MeasureEpoch(ds.graph, p, model, ds.features).makespan_seconds;
    std::printf("%-8u %-14.4f\n", workers, t);
  }

  std::printf("\n-- pipeline processing (k=%u) --\n", k);
  const DistEpochStats pp = MeasureEpoch(ds.graph, hash, model, ds.features);
  const double agg_pp = pp.aggregation_seconds_pipelined;
  const double agg_raw = pp.aggregation_seconds_raw;
  std::printf("aggregation makespan: %.4fs with PP vs %.4fs without (%.1f%% better)\n", agg_pp,
              agg_raw, 100.0 * (agg_raw - agg_pp) / agg_raw);

  // ADB shines when per-root work varies: PinSage caps every root at top-10
  // neighbors (already balanced), but MAGNN's metapath-instance counts track
  // the degree skew. So the balancing demo uses MAGNN on the typed graph.
  std::printf("\n-- ADB workload balancing (MAGNN, k=%u) --\n", k);
  Dataset typed = WithSyntheticVertexTypes(ds, 3);
  MagnnConfig magnn_config;
  magnn_config.in_dim = typed.feature_dim();
  magnn_config.num_classes = typed.num_classes;
  magnn_config.max_instances_per_path = 128;  // keep the hub skew visible
  GnnModel magnn = MakeMagnnModel(magnn_config, rng);

  // ADB's production flow (paper §6): partition offline with a conventional
  // partitioner (PuLP-style label propagation — which clusters hubs and
  // skews GNN workload), then rebalance online with the learned cost model.
  LabelPropagationParams lp;
  lp.num_parts = k;
  Partitioning pulp = LabelPropagationPartition(typed.graph, lp);

  AdbDriverOptions options;
  options.adb.balance_threshold = 1.05;
  Rng adb_rng(11);
  AdbDriverResult adb =
      RunAdbBalancing(typed.graph, magnn, pulp, typed.feature_dim(), options, adb_rng);
  std::printf("cost model fitted (rms %.2f); balance %.3f → %.3f, cut edges %llu\n",
              adb.fit_rms, adb.adb.balance_before, adb.adb.balance_after,
              static_cast<unsigned long long>(adb.adb.cut_edges_after));
  const double agg_pulp =
      MeasureEpoch(typed.graph, pulp, magnn, typed.features).aggregation_seconds;
  const double agg_adb =
      MeasureEpoch(typed.graph, adb.partitioning, magnn, typed.features).aggregation_seconds;
  std::printf("aggregation makespan: %.4fs PuLP vs %.4fs ADB\n", agg_pulp, agg_adb);
  return 0;
}
