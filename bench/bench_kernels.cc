// Kernel-level microbenchmarks (google-benchmark): the three aggregation
// kernel classes the hybrid execution strategy arbitrates between — sparse
// gather+scatter (SA), scalar fused (a DGL-like fusion without SIMD layout),
// vectorized fused (FlexGraph's feature fusion) — plus the dense-vs-sparse
// schema-level reduce and MAGNN's instance-attention passes. These isolate
// the per-kernel gaps that the macro-benches (Table 2, Figure 14) aggregate.
//
// Every benchmark runs a fixed ->Iterations(n): with FLEXGRAPH_PROFILE=1 the
// exported prof.* counters sum over all iterations, and the bench gate
// compares them at ±15%, so a timing-chosen count would move them whenever a
// kernel got faster or the host slower.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/baselines/kernels.h"
#include "src/core/fused_ops.h"
#include "src/data/synthetic.h"
#include "src/exec/chunks.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/ops_sparse.h"
#include "src/tensor/workspace.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace flexgraph {
namespace {

struct AggFixture {
  Tensor x;
  std::vector<VertexId> leaf_ids;
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> dst_index;
};

AggFixture MakeFixture(int64_t dim) {
  PowerLawGraphParams params;
  params.num_vertices = 16384;
  params.avg_degree = 32.0;
  CsrGraph g = GeneratePowerLawGraph(params);
  AggFixture f;
  Rng rng(1);
  f.x = Tensor::Uninitialized(g.num_vertices(), dim);
  for (int64_t i = 0; i < f.x.numel(); ++i) {
    f.x.data()[i] = rng.NextFloat();
  }
  f.leaf_ids.assign(g.in_neighbors().begin(), g.in_neighbors().end());
  f.offsets.assign(g.in_offsets().begin(), g.in_offsets().end());
  f.dst_index.resize(f.leaf_ids.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (uint64_t e = f.offsets[v]; e < f.offsets[v + 1]; ++e) {
      f.dst_index[e] = v;
    }
  }
  return f;
}

void BM_FusedAggregate(benchmark::State& state) {
  AggFixture f = MakeFixture(state.range(0));
  for (auto _ : state) {
    Tensor out = FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.leaf_ids.size()) * state.range(0));
}
BENCHMARK(BM_FusedAggregate)->Arg(16)->Arg(64)->Arg(256)->Iterations(50);

void BM_ScalarFusedAggregate(benchmark::State& state) {
  AggFixture f = MakeFixture(state.range(0));
  for (auto _ : state) {
    Tensor out = ScalarSegmentGatherReduceSum(f.x, f.leaf_ids, f.offsets);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.leaf_ids.size()) * state.range(0));
}
BENCHMARK(BM_ScalarFusedAggregate)->Arg(16)->Arg(64)->Arg(256)->Iterations(5);

void BM_SparseGatherScatterAggregate(benchmark::State& state) {
  AggFixture f = MakeFixture(state.range(0));
  const auto n = static_cast<int64_t>(f.offsets.size()) - 1;
  for (auto _ : state) {
    Tensor gathered = GatherRows(f.x, f.leaf_ids);  // materialized [E, d]
    Tensor out = Scatter(gathered, f.dst_index, n, ReduceKind::kSum);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.leaf_ids.size()) * state.range(0));
}
BENCHMARK(BM_SparseGatherScatterAggregate)->Arg(16)->Arg(64)->Arg(256)->Iterations(3);

void BM_DenseSchemaReduce(benchmark::State& state) {
  const int64_t roots = 16384;
  const int64_t types = 6;
  Rng rng(2);
  Tensor slots = Tensor::Uninitialized(roots * types, state.range(0));
  for (int64_t i = 0; i < slots.numel(); ++i) {
    slots.data()[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    Tensor out = GroupSumRows(slots, types);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DenseSchemaReduce)->Arg(16)->Arg(64)->Iterations(300);

void BM_SparseSchemaReduce(benchmark::State& state) {
  const int64_t roots = 16384;
  const int64_t types = 6;
  Rng rng(2);
  Tensor slots = Tensor::Uninitialized(roots * types, state.range(0));
  for (int64_t i = 0; i < slots.numel(); ++i) {
    slots.data()[i] = rng.NextFloat();
  }
  std::vector<uint32_t> index(static_cast<std::size_t>(roots * types));
  for (int64_t i = 0; i < roots * types; ++i) {
    index[static_cast<std::size_t>(i)] = static_cast<uint32_t>(i / types);
  }
  for (auto _ : state) {
    Tensor out = Scatter(slots, index, roots, ReduceKind::kSum);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SparseSchemaReduce)->Arg(16)->Arg(64)->Iterations(300);

// Thread sweep over the planned fused kernel. The plan's chunk boundaries are
// fixed up front (independent of the pool size), so the output is bitwise
// identical across every Arg — only the wall time moves. d=128 keeps the
// per-call work (~64M floats) far above exec::kMinParallelWork so the pool
// actually engages.
void BM_FusedAggregateThreads(benchmark::State& state) {
  AggFixture f = MakeFixture(128);
  const std::vector<int64_t> chunks = MakeSegmentChunks(f.offsets, kPlanChunkTarget);
  exec::SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Tensor out =
        FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum, chunks);
    benchmark::DoNotOptimize(out.data());
  }
  exec::SetNumThreads(0);  // back to the env/hardware default
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.leaf_ids.size()) * 128);
}
BENCHMARK(BM_FusedAggregateThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(100);

// Workspace ablation: the same kernel drawing its output from a bump arena
// (steady-state: zero heap allocation) vs. plain heap tensors every call.
void BM_FusedAggregateWorkspace(benchmark::State& state) {
  AggFixture f = MakeFixture(64);
  const std::vector<int64_t> chunks = MakeSegmentChunks(f.offsets, kPlanChunkTarget);
  const bool use_arena = state.range(0) != 0;
  Workspace ws;
  for (auto _ : state) {
    if (use_arena) {
      ws.Reset();
    }
    WorkspaceScope scope(use_arena ? &ws : nullptr);
    Tensor out =
        FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum, chunks);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(use_arena ? "arena" : "heap");
}
BENCHMARK(BM_FusedAggregateWorkspace)->Arg(0)->Arg(1)->Iterations(100);

// MAGNN's instance attention (DESIGN.md §20) on a MAGNN-shaped level:
// 4096 slots of 32 width-3 instances [root, middle, end] that share their
// root and middle, one 32-instance prefix run per slot, as the capped
// metapath DFS emits them. Each iteration is one kernel-table call over
// the whole range, so the exported prof.instance_attention{,_grad,_dw}
// counters pin the rows the kernels gather. α and the score gradient are
// random: the kernels' work does not depend on their values.
struct InstanceFixture {
  static constexpr int64_t kD = 64;
  static constexpr int64_t kRun = 32;
  std::vector<float> x, w, grad, alpha, dscore;
  std::vector<uint32_t> ids;
  std::vector<uint64_t> leaf_offsets{0};
  std::vector<uint64_t> slot_offsets{0};
  int64_t instances() const { return static_cast<int64_t>(leaf_offsets.size()) - 1; }
  int64_t slots() const { return static_cast<int64_t>(slot_offsets.size()) - 1; }
};

const InstanceFixture& MagnnInstanceFixture() {
  static const InstanceFixture f = [] {
    constexpr uint64_t kVertices = 16384;
    constexpr int64_t kSlots = 4096;
    InstanceFixture g;
    Rng rng(6);
    const auto fill = [&](std::vector<float>& v, std::size_t n) {
      v.resize(n);
      for (float& e : v) {
        e = rng.NextFloat();
      }
    };
    fill(g.x, kVertices * InstanceFixture::kD);
    fill(g.w, InstanceFixture::kD);
    fill(g.grad, kSlots * InstanceFixture::kD);
    for (int64_t s = 0; s < kSlots; ++s) {
      const auto root = static_cast<uint32_t>(s);
      const auto middle = static_cast<uint32_t>(rng.NextBounded(kVertices));
      for (int64_t l = 0; l < InstanceFixture::kRun; ++l) {
        g.ids.insert(g.ids.end(),
                     {root, middle, static_cast<uint32_t>(rng.NextBounded(kVertices))});
        g.leaf_offsets.push_back(g.ids.size());
      }
      g.slot_offsets.push_back(g.leaf_offsets.size() - 1);
    }
    fill(g.alpha, static_cast<std::size_t>(g.instances()));
    fill(g.dscore, static_cast<std::size_t>(g.instances()));
    return g;
  }();
  return f;
}

void BM_InstanceAttention(benchmark::State& state) {
  const InstanceFixture& f = MagnnInstanceFixture();
  constexpr int64_t d = InstanceFixture::kD;
  std::vector<float> tile(InstanceFixture::kRun * d);
  std::vector<float> alpha(f.alpha.size());
  std::vector<float> out(static_cast<std::size_t>(f.slots() * d));
  for (auto _ : state) {
    simd::Kernels().instance_attention(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                                       f.slot_offsets.data(), f.w.data(), 0.5f, 0, f.slots(),
                                       tile.data(), alpha.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InstanceAttention)->Iterations(20);

void BM_InstanceAttentionGrad(benchmark::State& state) {
  const InstanceFixture& f = MagnnInstanceFixture();
  constexpr int64_t d = InstanceFixture::kD;
  std::vector<float> tile(InstanceFixture::kRun * d);
  std::vector<float> dscore(f.dscore.size());
  for (auto _ : state) {
    simd::Kernels().instance_attention_grad(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                                            f.slot_offsets.data(), f.alpha.data(),
                                            f.grad.data(), 0, f.slots(), tile.data(),
                                            dscore.data());
    benchmark::DoNotOptimize(dscore.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InstanceAttentionGrad)->Iterations(20);

void BM_InstanceAttentionDw(benchmark::State& state) {
  const InstanceFixture& f = MagnnInstanceFixture();
  constexpr int64_t d = InstanceFixture::kD;
  std::vector<float> dw(d);
  for (auto _ : state) {
    simd::Kernels().instance_attention_dw(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                                          f.instances(), f.dscore.data(), 0, d, dw.data());
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InstanceAttentionDw)->Iterations(20);

void BM_MatMul(benchmark::State& state) {
  Rng rng(3);
  Tensor a = Tensor::Uninitialized(4096, state.range(0));
  Tensor b = Tensor::Uninitialized(state.range(0), 64);
  for (int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = rng.NextFloat();
  }
  for (int64_t i = 0; i < b.numel(); ++i) {
    b.data()[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    Tensor c = MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(256)->Iterations(200);

// SIMD-vs-scalar ablation: the same fused gather-reduce and packed-GEMM calls
// with the kernel table rebound to the scalar variant vs. the startup-
// dispatched one. Single-threaded so the ratio isolates vector width; both
// variants run the identical chunk schedule, so outputs stay bitwise equal.
void RecordSimdComparison(BenchReporter& reporter, const AggFixture& f,
                          const std::vector<int64_t>& chunks) {
  constexpr int kReps = 10;
  const simd::IsaLevel active = simd::ActiveIsa();
  exec::SetNumThreads(1);
  Rng rng(4);
  Tensor a = Tensor::Uninitialized(2048, 256);
  Tensor b = Tensor::Uninitialized(256, 256);
  for (int64_t i = 0; i < a.numel(); ++i) {
    a.data()[i] = rng.NextFloat();
  }
  for (int64_t i = 0; i < b.numel(); ++i) {
    b.data()[i] = rng.NextFloat();
  }
  double fused_scalar = 0.0;
  double gemm_scalar = 0.0;
  for (const bool scalar : {true, false}) {
    simd::SetIsa(scalar ? simd::IsaLevel::kScalar : active);
    const std::string tag = scalar ? "scalar" : "simd";
    {
      Tensor warm =
          FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum, chunks);
      benchmark::DoNotOptimize(warm.data());
      WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        Tensor out =
            FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum, chunks);
        benchmark::DoNotOptimize(out.data());
      }
      const double avg = timer.ElapsedSeconds() / kReps;
      reporter.Record("fused_" + tag + "_seconds", avg);
      if (scalar) {
        fused_scalar = avg;
      } else {
        reporter.Record("fused_simd_speedup_vs_scalar", fused_scalar / avg);
      }
    }
    {
      Tensor warm = MatMul(a, b);
      benchmark::DoNotOptimize(warm.data());
      WallTimer timer;
      for (int r = 0; r < kReps; ++r) {
        Tensor c = MatMul(a, b);
        benchmark::DoNotOptimize(c.data());
      }
      const double avg = timer.ElapsedSeconds() / kReps;
      reporter.Record("gemm_" + tag + "_seconds", avg);
      if (scalar) {
        gemm_scalar = avg;
      } else {
        reporter.Record("gemm_simd_speedup_vs_scalar", gemm_scalar / avg);
      }
    }
  }
  simd::ResetIsa();
  exec::SetNumThreads(0);
}

// Thread sweep over the weight gradient of MAGNN's attention score:
// MatMulTransA of a [131072 × 64] forward input against its [131072 × 1]
// output gradient. The timings and speedups are informational, like the
// fig14 ones: the gate keys on prof.* counters, never on seconds.
void RecordGemmTransAThreads(BenchReporter& reporter) {
  constexpr int kReps = 10;
  Rng rng(5);
  Tensor x = Tensor::Uninitialized(131072, 64);
  Tensor g = Tensor::Uninitialized(131072, 1);
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = rng.NextFloat();
  }
  for (int64_t i = 0; i < g.numel(); ++i) {
    g.data()[i] = rng.NextFloat();
  }
  double threads1 = 0.0;
  for (int threads : {1, 2, 4}) {
    exec::SetNumThreads(threads);
    {  // warm-up rep: spins up the resized pool before timing starts
      Tensor c = MatMulTransA(x, g);
      benchmark::DoNotOptimize(c.data());
    }
    WallTimer timer;
    for (int r = 0; r < kReps; ++r) {
      Tensor c = MatMulTransA(x, g);
      benchmark::DoNotOptimize(c.data());
    }
    const double avg = timer.ElapsedSeconds() / kReps;
    reporter.Record("gemm_trans_a_t" + std::to_string(threads) + "_seconds", avg);
    if (threads == 1) {
      threads1 = avg;
    } else {
      reporter.Record("gemm_trans_a_speedup_t" + std::to_string(threads) + "_vs_t1",
                      threads1 / avg);
    }
  }
  exec::SetNumThreads(0);
}

// Records the thread sweeps (with explicit speedup ratios vs. 1 thread), the
// workspace ablation, and the SIMD-vs-scalar ablation into the registry so
// they land in BENCH_kernels.json (google-benchmark's own output goes to
// stdout).
void RecordSweeps(BenchReporter& reporter) {
  AggFixture f = MakeFixture(128);
  const std::vector<int64_t> chunks = MakeSegmentChunks(f.offsets, kPlanChunkTarget);
  constexpr int kReps = 10;
  double threads1 = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    exec::SetNumThreads(threads);
    {  // warm-up rep: spins up the resized pool before timing starts
      Tensor out =
          FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum, chunks);
      benchmark::DoNotOptimize(out.data());
    }
    WallTimer timer;
    for (int r = 0; r < kReps; ++r) {
      Tensor out =
          FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum, chunks);
      benchmark::DoNotOptimize(out.data());
    }
    const double avg = timer.ElapsedSeconds() / kReps;
    reporter.Record("fused_threads" + std::to_string(threads) + "_seconds", avg);
    if (threads == 1) {
      threads1 = avg;
    } else {
      reporter.Record("fused_speedup_threads" + std::to_string(threads) + "_vs_1",
                      threads1 / avg);
    }
  }
  exec::SetNumThreads(0);
  for (const bool use_arena : {false, true}) {
    Workspace ws;
    WallTimer timer;
    for (int r = 0; r < kReps; ++r) {
      if (use_arena) {
        ws.Reset();
      }
      WorkspaceScope scope(use_arena ? &ws : nullptr);
      Tensor out =
          FusedSegmentGatherReduce(f.x, f.leaf_ids, f.offsets, ReduceKind::kSum, chunks);
      benchmark::DoNotOptimize(out.data());
    }
    reporter.Record(use_arena ? "fused_arena_seconds" : "fused_heap_seconds",
                    timer.ElapsedSeconds() / kReps);
  }
  RecordSimdComparison(reporter, f, chunks);
  RecordGemmTransAThreads(reporter);
}

}  // namespace
}  // namespace flexgraph

// Hand-rolled BENCHMARK_MAIN so the run also exports the metric registry
// (kernel.* counters populated by the fused ops, plus the recorded thread
// sweep and workspace ablation) as BENCH_kernels.json.
int main(int argc, char** argv) {
  flexgraph::BenchReporter reporter("kernels");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  flexgraph::RecordSweeps(reporter);
  benchmark::Shutdown();
  return 0;
}
