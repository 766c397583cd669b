// Figure 15a — workload balancing: Aggregation-stage makespan of GCN /
// PinSage / MAGNN on Twitter with k=8 workers under PuLP-style label
// propagation, Hash, and ADB (= offline partitioning + online cost-model
// rebalancing). Expected shape: ADB best; PuLP worst (its locality-seeking
// partitions are the most workload-skewed on power-law graphs — the paper
// makes the same observation).
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/dist/adb_driver.h"
#include "src/dist/runtime.h"
#include "src/util/table_printer.h"

namespace flexgraph {
namespace {

constexpr uint32_t kWorkers = 8;

double AggregationMakespan(const Dataset& ds, const GnnModel& model, const Partitioning& parts,
                           int epochs) {
  DistributedRuntime runtime(ds.graph, parts, DistConfig{});
  Rng rng(5);
  runtime.RunEpoch(model, ds.features, rng, nullptr);  // warm-up build
  double total = 0.0;
  for (int e = 0; e < epochs; ++e) {
    total += runtime.RunEpoch(model, ds.features, rng, nullptr).aggregation_seconds;
  }
  return total / epochs;
}

}  // namespace
}  // namespace flexgraph

int main() {
  using namespace flexgraph;
  BenchReporter reporter("fig15a_workload_balance");
  const int epochs = BenchEpochs();
  std::printf("== Figure 15a: Aggregation makespan (seconds) on Twitter, k=%u — "
              "PuLP vs Hash vs ADB ==\n",
              kWorkers);
  std::printf("scale=%.2f epochs=%d\n", BenchScale(), epochs);

  TablePrinter table({"Model", "PuLP", "Hash", "ADB", "ADB balance"});
  for (const char* model_name : {"gcn", "pinsage", "magnn"}) {
    Dataset ds = BenchDataset("twitter", std::string(model_name) == "magnn");
    Rng rng(5);
    GnnModel model = BenchModel(model_name, ds, rng);

    Partitioning hash = HashPartition(ds.graph.num_vertices(), kWorkers);
    LabelPropagationParams lp;
    lp.num_parts = kWorkers;
    Partitioning pulp = LabelPropagationPartition(ds.graph, lp);

    // ADB: rebalance the PuLP partitioning with the learned cost model.
    AdbDriverOptions options;
    options.adb.balance_threshold = 1.05;
    Rng adb_rng(11);
    AdbDriverResult adb =
        RunAdbBalancing(ds.graph, model, pulp, ds.feature_dim(), options, adb_rng);

    table.AddRow(
        {model_name, TablePrinter::Num(AggregationMakespan(ds, model, pulp, epochs), 4),
         TablePrinter::Num(AggregationMakespan(ds, model, hash, epochs), 4),
         TablePrinter::Num(AggregationMakespan(ds, model, adb.partitioning, epochs), 4),
         TablePrinter::Num(adb.adb.balance_before, 3) + " -> " +
             TablePrinter::Num(adb.adb.balance_after, 3)});
  }
  table.Print(std::cout);
  return 0;
}
