// Figure 13 — end-to-end performance on multiple machines (Reddit), 1→16
// workers. FlexGraph runs in the simulated distributed runtime (measured
// compute + modeled network, training simulation on); the mini-batch
// baselines are modeled as (single-machine epoch / k) + remote-feature-fetch
// time over the k-partitioned features — the cost structure DistDGL/Euler
// have, where every batch pulls its k-hop closure's features from the
// partitioned store. Expected shape: near-linear FlexGraph scaling with a
// 10²–10³× gap on GCN (paper: 1021× average) and ~2–40× on PinSage.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/baselines/dgl_like.h"
#include "src/baselines/minibatch.h"
#include "src/dist/runtime.h"
#include "src/util/table_printer.h"

namespace flexgraph {
namespace {

double FlexGraphDistEpoch(const Dataset& ds, const GnnModel& model, uint32_t workers) {
  DistConfig config;
  // Forward-only epochs, like every other system in the suite (the baseline
  // scaling model has no backward term either — see EXPERIMENTS.md).
  config.backward_compute_factor = 0.0;
  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), workers), config);
  Rng rng(5);
  runtime.RunEpoch(model, ds.features, rng, nullptr);  // warm-up (static HDG build)
  double total = 0.0;
  const int epochs = BenchEpochs();
  for (int e = 0; e < epochs; ++e) {
    total += runtime.RunEpoch(model, ds.features, rng, nullptr).makespan_seconds;
  }
  return total / epochs;
}

// Mini-batch distributed model: compute parallelizes over workers; every
// gathered feature byte whose owner is remote ((k-1)/k of them under hash
// partitioning) crosses the network.
double MiniBatchDistEpoch(const EpochOutcome& single, uint32_t workers,
                          const NetworkModel& net) {
  if (single.status != EpochStatus::kOk) {
    return -1.0;
  }
  const double compute = single.seconds / workers;
  const double remote_fraction = workers > 1 ? (workers - 1.0) / workers : 0.0;
  const auto remote_bytes =
      static_cast<uint64_t>(remote_fraction * static_cast<double>(single.total_bytes) / workers);
  return compute + net.TransferSeconds(remote_bytes, workers > 1 ? workers - 1 : 0);
}

std::string Cell(double seconds) {
  return seconds < 0 ? "X" : TablePrinter::Num(seconds, 4);
}

}  // namespace
}  // namespace flexgraph

int main() {
  using namespace flexgraph;
  BenchReporter reporter("fig13_scaling");
  std::printf("== Figure 13: per-epoch time (seconds) on 1..16 workers, dataset=reddit ==\n");
  std::printf("scale=%.2f epochs=%d\n", BenchScale(), BenchEpochs());
  const NetworkModel net;
  const WalkParams walks;

  // --- (a) GCN ---
  {
    Dataset ds = BenchDataset("reddit");
    const ModelDims dims = BenchDims(ds);
    Rng rng(5);
    GnnModel model = BenchModel("gcn", ds, rng);
    Rng mb_rng(6);
    EpochOutcome distdgl_single = MiniBatchGcnEpoch(ds, dims, DistDglLikeConfig(ds), mb_rng);

    TablePrinter table({"Workers", "FlexGraph", "DistDGL-like"});
    for (uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
      table.AddRow({std::to_string(k), Cell(FlexGraphDistEpoch(ds, model, k)),
                    Cell(MiniBatchDistEpoch(distdgl_single, k, net))});
    }
    std::printf("\n(a) GCN\n");
    table.Print(std::cout);
  }

  // --- (b) PinSage ---
  {
    Dataset ds = BenchDataset("reddit");
    const ModelDims dims = BenchDims(ds);
    Rng rng(5);
    GnnModel model = BenchModel("pinsage", ds, rng);
    Rng dgl_rng(6);
    EpochOutcome distdgl_single = DglLikePinSageEpoch(ds, dims, walks, dgl_rng);
    distdgl_single.total_bytes =  // walk propagation gathers [n, d] per hop per layer
        static_cast<uint64_t>(ds.graph.num_vertices()) * ds.feature_dim() * sizeof(float) *
        walks.num_walks * walks.hops * 2;
    Rng euler_rng(7);
    EpochOutcome euler_single =
        MiniBatchPinSageEpoch(ds, dims, EulerLikeConfig(ds), walks, euler_rng);

    TablePrinter table({"Workers", "FlexGraph", "DistDGL-like", "Euler-like"});
    for (uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
      table.AddRow({std::to_string(k), Cell(FlexGraphDistEpoch(ds, model, k)),
                    Cell(MiniBatchDistEpoch(distdgl_single, k, net)),
                    Cell(MiniBatchDistEpoch(euler_single, k, net))});
    }
    std::printf("\n(b) PinSage\n");
    table.Print(std::cout);
  }

  // --- (c) MAGNN (FlexGraph only — unsupported elsewhere) ---
  {
    Dataset ds = BenchDataset("reddit", /*typed=*/true);
    Rng rng(5);
    GnnModel model = BenchModel("magnn", ds, rng);
    TablePrinter table({"Workers", "FlexGraph"});
    for (uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
      table.AddRow({std::to_string(k), Cell(FlexGraphDistEpoch(ds, model, k))});
    }
    std::printf("\n(c) MAGNN\n");
    table.Print(std::cout);
  }
  return 0;
}
