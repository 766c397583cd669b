// Figure 14 — effectiveness of hybrid aggregation: Aggregation-stage time for
// GCN / PinSage / MAGNN under SA (sparse scatter only), SA+FA (feature fusion
// at the bottom level) and HA (…+ dense schema ops), on FB91 and Twitter.
// Expected shape: SA slowest everywhere (edge-message materialization);
// HA == SA+FA for GCN/PinSage (flat schema trees — the paper observes the
// same); HA adds a further gain on MAGNN from the dense schema-level reduce.
#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"
#include "src/core/aggregation.h"
#include "src/tensor/workspace.h"
#include "src/util/table_printer.h"

namespace flexgraph {
namespace {

double AggregationSeconds(const Dataset& ds, const std::string& model_name,
                          ExecStrategy strategy, int epochs) {
  Rng rng(5);
  GnnModel model = BenchModel(model_name, ds, rng);
  Engine engine(ds.graph, strategy);
  Rng epoch_rng(7);
  StageTimes warmup;
  engine.Infer(model, ds.features, epoch_rng, &warmup);  // build HDGs untimed
  StageTimes times;
  for (int e = 0; e < epochs; ++e) {
    engine.Infer(model, ds.features, epoch_rng, &times);
  }
  return times.aggregation / epochs;
}

// Best-of-epochs variant for the thread-scaling sweep: the per-epoch minimum
// filters scheduler noise (a time-shared runner can move a single epoch by
// more than the effect being measured), which the speedup-ratio gate needs.
double AggregationSecondsMin(const Dataset& ds, const std::string& model_name,
                             ExecStrategy strategy, int epochs) {
  Rng rng(5);
  GnnModel model = BenchModel(model_name, ds, rng);
  Engine engine(ds.graph, strategy);
  Rng epoch_rng(7);
  StageTimes warmup;
  engine.Infer(model, ds.features, epoch_rng, &warmup);
  double best = 0.0;
  double prev = 0.0;
  StageTimes acc;
  for (int e = 0; e < epochs; ++e) {
    engine.Infer(model, ds.features, epoch_rng, &acc);
    const double epoch_seconds = acc.aggregation - prev;
    prev = acc.aggregation;
    if (e == 0 || epoch_seconds < best) {
      best = epoch_seconds;
    }
  }
  return best;
}

// One pass of MAGNN's bottom level alone — the fused kMean gather-reduce
// over every instance's member rows, read in the HDG's leaf order — over the
// HDG and plan an HA MAGNN engine compiles, behind the engine's own copy of
// the input features into the arena. An HA MAGNN epoch no longer runs this
// kernel: its instance-attention op forms the means in its own tiles.
void BottomLevelPass(const Dataset& ds) {
  Rng rng(5);
  GnnModel model = BenchModel("magnn", ds, rng);
  Engine engine(ds.graph, ExecStrategy::kHybrid);
  Rng epoch_rng(7);
  const Hdg& hdg = engine.EnsureHdg(model, epoch_rng, nullptr);
  const HdgAggregator agg(hdg, ExecStrategy::kHybrid, nullptr, engine.plan());
  engine.workspace().Reset();
  WorkspaceScope scope(&engine.workspace());
  agg.BottomLevel(Variable::Leaf(WsTensorCopy(ds.features)), ReduceKind::kMean);
}

}  // namespace
}  // namespace flexgraph

int main() {
  using namespace flexgraph;
  BenchReporter reporter("fig14_hybrid_agg");
  const int epochs = BenchEpochs();
  std::printf("== Figure 14: Aggregation-stage time (seconds) under SA / SA+FA / HA ==\n");
  std::printf("scale=%.2f epochs=%d\n", BenchScale(), epochs);

  for (const char* dataset_name : {"fb91", "twitter"}) {
    TablePrinter table({"Model", "SA", "SA+FA", "HA", "HA speedup vs SA"});
    for (const char* model_name : {"gcn", "pinsage", "magnn"}) {
      Dataset ds = BenchDataset(dataset_name, std::string(model_name) == "magnn");
      const double sa = AggregationSeconds(ds, model_name, ExecStrategy::kSparse, epochs);
      const double safa =
          AggregationSeconds(ds, model_name, ExecStrategy::kSparseFused, epochs);
      const double ha = AggregationSeconds(ds, model_name, ExecStrategy::kHybrid, epochs);
      table.AddRow({model_name, TablePrinter::Num(sa, 4), TablePrinter::Num(safa, 4),
                    TablePrinter::Num(ha, 4), TablePrinter::Num(sa / ha, 2) + "x"});
    }
    std::printf("\n(%s)\n", dataset_name);
    table.Print(std::cout);
  }

  // Thread scaling of the HA aggregation stage on the synthetic MAGNN
  // workload. The execution plan fixes chunk boundaries independently of the
  // thread count, so every row computes bitwise-identical features — the
  // sweep compares wall time only. Recorded separately as BENCH_fig14.json.
  {
    BenchReporter fig14("fig14");
    Dataset ds = BenchDataset("fb91", /*typed=*/true);
    TablePrinter table({"threads", "HA agg seconds", "speedup vs 1 thread"});
    // The sweep needs tighter timing than the tables: the effect being gated
    // (speedup ratios vs 1 thread) is a few percent, so it takes min-of-reps
    // with its own floor on the rep count rather than the table's epochs.
    const int sweep_reps = std::max(epochs, 8);
    double t1 = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      SetBenchThreads(threads);
      const double t = AggregationSecondsMin(ds, "magnn", ExecStrategy::kHybrid, sweep_reps);
      if (threads == 1) {
        t1 = t;
      }
      const double speedup = t > 0.0 ? t1 / t : 0.0;
      fig14.Record("ha_magnn_threads" + std::to_string(threads) + "_seconds", t);
      fig14.Record("ha_magnn_speedup_t" + std::to_string(threads), speedup);
      table.AddRow({std::to_string(threads), TablePrinter::Num(t, 4),
                    TablePrinter::Num(speedup, 2) + "x"});
    }
    SetBenchThreads(0);
    std::printf("\n(HA thread scaling, magnn on synthetic fb91)\n");
    table.Print(std::cout);

    // Static fusion effectiveness: ratio of leaf references the rewritten
    // bottom-level programs read (shared subtrees materialized once) to the
    // unfused leaf count, summed over every FA/HA plan this process compiled.
    const auto snap = obs::MetricRegistry::Get().Snapshot();
    auto counter = [&](const char* name) -> int64_t {
      auto it = snap.counters.find(name);
      return it != snap.counters.end() ? it->second : 0;
    };
    const int64_t refs_before = counter("plan.fused_leaf_refs_before");
    const int64_t refs_after = counter("plan.fused_leaf_refs_after");
    const double ratio =
        refs_before > 0 ? static_cast<double>(refs_after) / refs_before : 1.0;
    fig14.Record("leaf_ref_ratio", ratio);
    std::printf("\nfusion leaf refs: before=%lld after=%lld ratio=%.4f\n",
                static_cast<long long>(refs_before),
                static_cast<long long>(refs_after), ratio);

    // Gather locality: achieved GB/s of the fused gather kernels
    // (segment_reduce + segment_reduce_ext) over one profiled pass of
    // MAGNN's bottom level (BottomLevelPass), against a streaming reference
    // — the roofline STREAM triad when the probe ran, else the rate of the
    // pure-movement kernels (row copies and zero fills, which row_copy
    // billed together before zero_fill got its own row) from the same
    // profiled pass: pure sequential movement, the best a gather could do.
    // The gather reads leaf rows in the HDG's own order at full feature
    // width, so the ratio guards how close that fused gather stays to
    // sequential movement.
    {
      const bool was_profiling = simd::KernelProfilingEnabled();
      if (!was_profiling) {
        simd::SetKernelProfiling(true);  // first enable runs the roofline probe
      }
      const obs::ProfilerReport before = obs::KernelProfiler::Get().Aggregate();
      BottomLevelPass(ds);
      const obs::ProfilerReport after = obs::KernelProfiler::Get().Aggregate();
      if (!was_profiling) {
        simd::SetKernelProfiling(false);
      }
      auto delta = [&](obs::ProfKernel k, double* bytes, double* wall) {
        const auto& b = before.rows[static_cast<std::size_t>(k)];
        const auto& a = after.rows[static_cast<std::size_t>(k)];
        *bytes += static_cast<double>(a.total_bytes() - b.total_bytes());
        *wall += a.wall_seconds - b.wall_seconds;
      };
      double gather_bytes = 0.0, gather_wall = 0.0;
      delta(obs::ProfKernel::kSegmentReduce, &gather_bytes, &gather_wall);
      delta(obs::ProfKernel::kSegmentReduceExt, &gather_bytes, &gather_wall);
      double copy_bytes = 0.0, copy_wall = 0.0;
      delta(obs::ProfKernel::kRowCopy, &copy_bytes, &copy_wall);
      delta(obs::ProfKernel::kZeroFill, &copy_bytes, &copy_wall);
      const double gather_gbps =
          gather_wall > 0.0 ? gather_bytes / gather_wall * 1e-9 : 0.0;
      const double stream_ref_gbps =
          after.roofline.mem_bw_gbps > 0.0
              ? after.roofline.mem_bw_gbps
              : (copy_wall > 0.0 ? copy_bytes / copy_wall * 1e-9 : 0.0);
      const double locality_ratio =
          stream_ref_gbps > 0.0 ? gather_gbps / stream_ref_gbps : 0.0;
      fig14.Record("gather_gbps", gather_gbps);
      fig14.Record("stream_ref_gbps", stream_ref_gbps);
      fig14.Record("gather_locality_ratio", locality_ratio);
      std::printf("gather locality: %.2f GB/s gather vs %.2f GB/s stream (%s) "
                  "= ratio %.3f\n",
                  gather_gbps, stream_ref_gbps,
                  after.roofline.mem_bw_gbps > 0.0 ? "roofline probe"
                                                   : "row_copy+zero_fill ref",
                  locality_ratio);
    }
  }
  return 0;
}
