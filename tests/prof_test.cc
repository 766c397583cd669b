// Tests for the kernel profiler's analytic accounting: the hand-derived
// byte/FLOP formulas on the instrumented tensor ops are pinned exactly
// (against small tensors that run as a single inline chunk), the counts are
// shown to be deterministic across runs and independent of FLEXGRAPH_PERF,
// and the perf_event_open fallback is exercised: env-off resolves silently,
// a failed probe warns at most once per process.
#include "src/obs/prof.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/core/fused_ops.h"
#include "src/exec/chunks.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/obs/perf_counters.h"
#include "src/tensor/autograd.h"
#include "src/tensor/nn.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/ops_sparse.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace obs {
namespace {

constexpr int64_t kF = static_cast<int64_t>(sizeof(float));
constexpr int64_t kIdx = static_cast<int64_t>(sizeof(uint32_t));

Tensor Filled(int64_t rows, int64_t cols, float start = 1.0f) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = start + 0.25f * static_cast<float>(i % 7);
  }
  return t;
}

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The roofline probe burns ~100ms of measurement loops; accounting tests
    // don't read the roofs, so skip it.
    setenv("FLEXGRAPH_ROOFLINE_PROBE", "off", 1);
    simd::SetKernelProfiling(true);
    KernelProfiler::Get().Reset();
  }

  void TearDown() override { simd::SetKernelProfiling(false); }

  static KernelProfileRow Row(ProfKernel k) {
    const ProfilerReport report = KernelProfiler::Get().Aggregate();
    return report.rows[static_cast<std::size_t>(k)];
  }
};

// Small tensors sit far below the parallel grain, so every instrumented op
// runs as one inline chunk and the per-chunk formula is observed verbatim.

TEST_F(ProfTest, ElementwiseAddAccounting) {
  const Tensor a = Filled(4, 8);
  const Tensor b = Filled(4, 8, 2.0f);
  (void)Add(a, b);
  const KernelProfileRow row = Row(ProfKernel::kElementwise);
  const int64_t m = 4 * 8;
  EXPECT_EQ(row.calls, 1);
  EXPECT_EQ(row.bytes_read, 2 * m * kF);  // two operand arrays
  EXPECT_EQ(row.bytes_written, m * kF);
  EXPECT_EQ(row.flops, m);  // one add per element
}

TEST_F(ProfTest, AddInPlaceCountsReadModifyWrite) {
  Tensor a = Filled(5, 6);
  const Tensor b = Filled(5, 6, 3.0f);
  AddInPlace(a, b);
  const KernelProfileRow row = Row(ProfKernel::kElementwise);
  const int64_t m = 5 * 6;
  EXPECT_EQ(row.calls, 1);
  // The destination is read-modify-write: counted on both sides.
  EXPECT_EQ(row.bytes_read, 2 * m * kF);
  EXPECT_EQ(row.bytes_written, m * kF);
  EXPECT_EQ(row.flops, m);
}

TEST_F(ProfTest, ColSumCountsAccumulatorOnWriteSideOnly) {
  const Tensor a = Filled(4, 6);
  (void)ColSum(a);
  const KernelProfileRow row = Row(ProfKernel::kElementwise);
  EXPECT_EQ(row.calls, 1);
  EXPECT_EQ(row.bytes_read, a.numel() * kF);
  EXPECT_EQ(row.bytes_written, a.cols() * kF);  // the segment_reduce convention
  EXPECT_EQ(row.flops, a.numel());
}

TEST_F(ProfTest, RowSoftmaxCountsFiveNominalFlopsPerElement) {
  const Tensor a = Filled(3, 5);
  (void)RowSoftmax(a);
  const KernelProfileRow row = Row(ProfKernel::kRowSoftmax);
  const int64_t m = 3 * 5;
  EXPECT_EQ(row.calls, 1);
  EXPECT_EQ(row.bytes_read, m * kF);
  EXPECT_EQ(row.bytes_written, m * kF);
  // max compare, subtract, exp (counted as one), sum accumulate, scale.
  EXPECT_EQ(row.flops, 5 * m);
}

TEST_F(ProfTest, GatherRowsCountsIndexBytes) {
  const Tensor x = Filled(6, 4);
  const std::vector<uint32_t> index = {5, 0, 3};
  (void)GatherRows(x, index);
  const KernelProfileRow row = Row(ProfKernel::kRowCopy);
  const int64_t r = 3;
  const int64_t d = 4;
  EXPECT_EQ(row.calls, 1);
  EXPECT_EQ(row.bytes_read, r * (d * kF + kIdx));  // rows plus the index entries
  EXPECT_EQ(row.bytes_written, r * d * kF);
  EXPECT_EQ(row.flops, 0);  // pure movement
}

TEST_F(ProfTest, WorkspaceFillAndCopyAccounting) {
  const Tensor zeroed = WsTensor(4, 4);
  const KernelProfileRow fill = Row(ProfKernel::kZeroFill);
  EXPECT_EQ(fill.calls, 1);
  EXPECT_EQ(fill.timed_calls, 1);
  EXPECT_EQ(fill.bytes_read, 0);  // a zero fill is pure stores
  EXPECT_EQ(fill.bytes_written, 16 * kF);
  EXPECT_EQ(fill.flops, 0);
  EXPECT_EQ(Row(ProfKernel::kRowCopy).calls, 0);  // zero fills have their own row

  (void)WsTensorCopy(zeroed);
  const KernelProfileRow copy = Row(ProfKernel::kRowCopy);
  EXPECT_EQ(copy.calls, 1);
  EXPECT_EQ(copy.bytes_read, 16 * kF);
  EXPECT_EQ(copy.bytes_written, 16 * kF);
  EXPECT_EQ(Row(ProfKernel::kZeroFill).calls, 1);
}

// The GEMMs and the zero fill fan out to the pool on these shapes, and
// ParallelFor's split follows the thread count; the byte/FLOP totals must
// not. The operand every chunk shares (b for gemm_trans_a, the packed panel
// for gemm) is billed once per call.
TEST_F(ProfTest, GemmAndZeroFillTotalsAreIndependentOfThreadCount) {
  struct RestoreThreads {
    ~RestoreThreads() { exec::SetNumThreads(0); }
  } restore;
  const Tensor x = Filled(131072, 64);   // MatMulTransA(x, g): k, m
  const Tensor g = Filled(131072, 1);    // n = 1, MAGNN's attention score
  const Tensor a = Filled(8192, 256);    // MatMul(a, w): m, k
  const Tensor w = Filled(256, 32);      // n = 32
  for (const int threads : {1, 2, 4}) {
    exec::SetNumThreads(threads);
    KernelProfiler::Get().Reset();
    (void)MatMulTransA(x, g);
    const KernelProfileRow trans_a = Row(ProfKernel::kGemmTransA);
    EXPECT_EQ(trans_a.bytes_read, (131072 * 64 + 131072 * 1) * kF) << threads;
    EXPECT_EQ(trans_a.bytes_written, 64 * 1 * kF) << threads;
    EXPECT_EQ(trans_a.flops, 2 * 64 * 1 * 131072) << threads;
    // gemm_trans_a overwrites its output: no zero fill precedes it.
    EXPECT_EQ(Row(ProfKernel::kZeroFill).calls, 0) << threads;

    KernelProfiler::Get().Reset();
    (void)MatMul(a, w);
    const KernelProfileRow gemm = Row(ProfKernel::kGemm);
    EXPECT_EQ(gemm.bytes_read, (8192 * 256 + 256 * simd::PackedStride(32)) * kF) << threads;
    EXPECT_EQ(gemm.bytes_written, 8192 * 32 * kF) << threads;
    EXPECT_EQ(gemm.flops, 2 * 8192 * 32 * 256) << threads;

    KernelProfiler::Get().Reset();
    (void)WsTensor(1024, 1024);
    const KernelProfileRow fill = Row(ProfKernel::kZeroFill);
    EXPECT_EQ(fill.bytes_read, 0) << threads;
    EXPECT_EQ(fill.bytes_written, 1024 * 1024 * kF) << threads;
    EXPECT_EQ(fill.flops, 0) << threads;
    // One chunk per task: the fill runs on the pool once there is one.
    if (threads == 1) {
      EXPECT_EQ(fill.calls, 1);
    } else {
      EXPECT_GT(fill.calls, 1) << threads;
    }
  }
}

TEST_F(ProfTest, SgdStepAccounting) {
  Variable p = Variable::Leaf(Filled(2, 3), /*requires_grad=*/true);
  p.grad() = Filled(2, 3, 0.5f);  // materialize outside the measured window
  std::vector<Variable> params = {p};
  KernelProfiler::Get().Reset();

  SgdOptimizer opt(/*lr=*/0.1f, /*weight_decay=*/0.0f);
  opt.Step(params);
  const int64_t n = 2 * 3;
  KernelProfileRow row = Row(ProfKernel::kElementwise);
  EXPECT_EQ(row.calls, 1);
  EXPECT_EQ(row.bytes_read, 2 * n * kF);  // grad + current value
  EXPECT_EQ(row.bytes_written, n * kF);
  EXPECT_EQ(row.flops, 2 * n);  // scale + subtract

  // Weight decay adds a multiply-add per element.
  KernelProfiler::Get().Reset();
  SgdOptimizer decay(/*lr=*/0.1f, /*weight_decay=*/0.01f);
  decay.Step(params);
  row = Row(ProfKernel::kElementwise);
  EXPECT_EQ(row.flops, 4 * n);
}

TEST_F(ProfTest, SegmentReduceExtAccounting) {
  const int64_t d = 4;
  const Tensor x = Filled(3, d);
  const Tensor partials = Filled(1, d, 2.0f);
  // Rewritten root over 2 segments: segment 0 = [partial 0], segment 1 =
  // [rows 0, 2]; original widths (scale offsets) are 2 and 2.
  const std::vector<uint32_t> ids = {3, 0, 2};
  const std::vector<uint64_t> offsets = {0, 1, 3};
  const std::vector<uint64_t> scale = {0, 2, 4};
  Tensor out = WsTensor(2, d);
  simd::Kernels().segment_reduce_ext(x.data(), /*base_rows=*/3, partials.data(), d,
                                     ids.data(), offsets.data(), scale.data(), 0, 2,
                                     simd::Reduce::kMean, out.data());
  // Extended id 3 reads partials row 0; mean scales by the ORIGINAL width.
  for (int64_t j = 0; j < d; ++j) {
    EXPECT_EQ(out.Row(0)[j], partials.Row(0)[j] * 0.5f);
    EXPECT_EQ(out.Row(1)[j], (x.Row(0)[j] + x.Row(2)[j]) * 0.5f);
  }

  const KernelProfileRow row = Row(ProfKernel::kSegmentReduceExt);
  const int64_t refs = 3;
  const int64_t segs = 2;
  const int64_t kOff = static_cast<int64_t>(sizeof(uint64_t));
  EXPECT_EQ(row.calls, 1);
  // Ref rows + extended ids, the segment bounds, and (mean only) the
  // original-width offsets.
  EXPECT_EQ(row.bytes_read, refs * (d * kF + kIdx) + 2 * (segs + 1) * kOff);
  EXPECT_EQ(row.bytes_written, segs * d * kF);
  EXPECT_EQ(row.flops, refs * d + segs * d);
}

// ---- MAGNN instance attention: the four recomputing kernels ----

// Each kernel's row pinned on one whole-range call: gathered member rows
// count as reads, every leaf id once, the per-task tile on neither side,
// the score weight once per call (the task that starts at 0). The slots
// hold prefix runs, so the gathered rows are fewer than the leaf refs.
TEST_F(ProfTest, InstanceAttentionAccounting) {
  const int64_t d = 5;
  Rng rng(5);
  const InstanceSlots slots = {
      {{1, 2, 3}, {1, 2, 4}, {1, 2, 5}},  // one run: 3 + 1 + 1 rows
      {},
      // {1, 2, 6} continues slot 0's run for pass B only (3 rows in the
      // forward, 1 in pass B); the width change starts a run (2 rows) that
      // {6, 8} continues (1 row); width 0 gathers nothing.
      {{1, 2, 6}, {6, 7}, {6, 8}, {}},
      {{0}},  // width 1: 1 row
  };
  const InstanceLevels f = MakeInstanceLevelsFromSlots(9, d, slots, rng);
  const int64_t inst = f.instances();
  const int64_t segs = f.slots();
  const auto refs = static_cast<int64_t>(f.ids.size());
  ASSERT_EQ(refs, 17);
  const int64_t rows = 12;       // runs inside slots: forward and pass A
  const int64_t sweep_rows = 10;  // runs across slots: pass B
  const int64_t kOff = static_cast<int64_t>(sizeof(uint64_t));
  const Tensor w = Filled(d, 1, 0.1f);
  const Tensor grad = Filled(segs, d);
  Tensor tile(f.longest_slot(), d);
  Tensor alpha(inst, 1);
  Tensor out(segs, d);
  Tensor dscore(inst, 1);
  Tensor dw(d, 1);
  Tensor gx(f.vertices(), d);
  const simd::KernelTable& kt = simd::Kernels();
  kt.instance_attention(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                        f.slot_offsets.data(), w.data(), 0.5f, 0, segs, tile.data(),
                        alpha.data(), out.data());
  kt.instance_attention_grad(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                             f.slot_offsets.data(), alpha.data(), grad.data(), 0, segs,
                             tile.data(), dscore.data());
  kt.instance_attention_dw(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(), inst,
                           dscore.data(), 0, d, dw.data());
  kt.instance_attention_input_grad(grad.data(), d, f.slot_of.data(), alpha.data(),
                                   dscore.data(), w.data(), f.src_offsets.data(),
                                   f.src_segments.data(), f.leaf_offsets.data(), 0,
                                   f.vertices(), gx.data());

  const KernelProfileRow fwd = Row(ProfKernel::kInstanceAttention);
  EXPECT_EQ(fwd.calls, 1);
  EXPECT_EQ(fwd.timed_calls, 1);
  EXPECT_EQ(fwd.bytes_read, rows * d * kF + refs * kIdx + (inst + 1) * kOff +
                                (segs + 1) * kOff + d * kF);
  EXPECT_EQ(fwd.bytes_written, segs * d * kF + inst * kF);
  EXPECT_EQ(fwd.flops, rows * d + inst * (5 * d + 6));

  const KernelProfileRow grad_row = Row(ProfKernel::kInstanceAttentionGrad);
  EXPECT_EQ(grad_row.calls, 1);
  EXPECT_EQ(grad_row.bytes_read, rows * d * kF + refs * kIdx + (inst + 1) * kOff +
                                     (segs + 1) * kOff + inst * kF + segs * d * kF);
  EXPECT_EQ(grad_row.bytes_written, inst * kF);
  EXPECT_EQ(grad_row.flops, rows * d + inst * (3 * d + 4));

  const KernelProfileRow dw_row = Row(ProfKernel::kInstanceAttentionDw);
  EXPECT_EQ(dw_row.calls, 1);
  // One 16-column block (d = 5): ids, offsets and dscore once, the
  // gathered rows' d columns.
  EXPECT_EQ(dw_row.bytes_read,
            refs * kIdx + (inst + 1) * kOff + inst * kF + sweep_rows * d * kF);
  EXPECT_EQ(dw_row.bytes_written, d * kF);
  EXPECT_EQ(dw_row.flops, d * (sweep_rows + 3 * inst));

  const KernelProfileRow in_row = Row(ProfKernel::kInstanceAttentionInputGrad);
  EXPECT_EQ(in_row.calls, 1);
  EXPECT_EQ(in_row.bytes_read,
            refs * (d * kF + 2 * kIdx + 2 * kF) + (f.vertices() + 1) * kOff + d * kF);
  EXPECT_EQ(in_row.bytes_written, f.vertices() * d * kF);
  EXPECT_EQ(in_row.flops, 6 * refs * d);

  // Nothing else runs: no per-row primitive is billed a second time.
  EXPECT_EQ(Row(ProfKernel::kAddRow).calls, 0);
  EXPECT_EQ(Row(ProfKernel::kAxpyRow).calls, 0);
  EXPECT_EQ(Row(ProfKernel::kSegmentReduce).calls, 0);
}

// Through the op, the four rows' bytes and FLOPs do not move with the
// thread count, though the number of calls does (one inline call at 1
// thread, one per chunk or column block at 4).
TEST_F(ProfTest, InstanceAttentionAccountingIsThreadCountInvariant) {
  struct RestoreThreads {
    ~RestoreThreads() { exec::SetNumThreads(0); }
  } restore;
  const int64_t d = 64;
  Rng rng(6);
  const InstanceLevels f =
      MakeInstanceLevels(500, d, std::vector<int64_t>(250, 16), rng);
  LevelPlan bottom;
  bottom.offsets = std::make_shared<const std::vector<uint64_t>>(f.leaf_offsets);
  bottom.leaf_ids = std::make_shared<const std::vector<uint32_t>>(f.ids);
  bottom.src_offsets = std::make_shared<const std::vector<uint64_t>>(f.src_offsets);
  bottom.src_edge_segments = std::make_shared<const std::vector<uint32_t>>(f.src_segments);
  bottom.src_chunks = std::make_shared<const std::vector<int64_t>>(
      MakeSegmentChunks(f.src_offsets, kPlanChunkTarget));
  LevelPlan instance;
  instance.offsets = std::make_shared<const std::vector<uint64_t>>(f.slot_offsets);
  instance.chunks = std::make_shared<const std::vector<int64_t>>(
      MakeSegmentChunks(f.slot_offsets, kPlanChunkTarget));
  instance.scatter_index = std::make_shared<const std::vector<uint32_t>>(f.slot_of);
  ASSERT_GE(static_cast<int64_t>(f.ids.size()) * d, exec::kMinParallelWork);

  const ProfKernel rows[] = {ProfKernel::kInstanceAttention, ProfKernel::kInstanceAttentionGrad,
                             ProfKernel::kInstanceAttentionDw,
                             ProfKernel::kInstanceAttentionInputGrad};
  std::vector<KernelProfileRow> at_one;
  for (const int threads : {1, 4}) {
    exec::SetNumThreads(threads);
    KernelProfiler::Get().Reset();
    Variable x = Variable::Leaf(f.x, /*requires_grad=*/true);
    Variable w = Variable::Leaf(Filled(d, 1, -0.5f), /*requires_grad=*/true);
    Variable b = Variable::Leaf(Filled(1, 1), /*requires_grad=*/true);
    AgInstanceAttention(x, w, b, bottom, instance, nullptr)
        .Backward(Filled(f.slots(), d, 0.5f));
    for (std::size_t r = 0; r < std::size(rows); ++r) {
      const KernelProfileRow row = Row(rows[r]);
      EXPECT_GT(row.calls, 0) << row.name;
      if (threads == 1) {
        EXPECT_EQ(row.calls, 1) << row.name;
        at_one.push_back(row);
        continue;
      }
      EXPECT_GT(row.calls, 1) << row.name << " did not fan out";
      EXPECT_EQ(row.bytes_read, at_one[r].bytes_read) << row.name;
      EXPECT_EQ(row.bytes_written, at_one[r].bytes_written) << row.name;
      EXPECT_EQ(row.flops, at_one[r].flops) << row.name;
    }
  }
}

TEST_F(ProfTest, UntimedScopeRecordsNothing) {
  {
    TimedKernelScope scope(ProfKernel::kElementwise, 100, 100, 100, /*enabled=*/false);
  }
  const KernelProfileRow row = Row(ProfKernel::kElementwise);
  EXPECT_EQ(row.calls, 0);
  EXPECT_EQ(row.bytes_read, 0);
}

// A mixed workload's analytic counters replay bit-identically: they are
// integer sums derived from shapes, never from measurement.
TEST_F(ProfTest, AccountingIsDeterministicAcrossRuns) {
  const auto workload = [] {
    const Tensor a = Filled(7, 9);
    const Tensor b = Filled(7, 9, 2.0f);
    const Tensor w = Filled(9, 5);
    Tensor sum = Add(a, b);
    AddInPlace(sum, a);
    (void)MatMul(sum, w);
    (void)RowSoftmax(Filled(4, 6));
    const std::vector<uint32_t> index = {6, 2, 2, 0};
    (void)GatherRows(a, index);
  };

  struct Work {
    int64_t calls, br, bw, fl;
  };
  const auto snapshot = [] {
    std::vector<Work> out;
    for (const KernelProfileRow& row : KernelProfiler::Get().Aggregate().rows) {
      out.push_back(Work{row.calls, row.bytes_read, row.bytes_written, row.flops});
    }
    return out;
  };

  workload();
  const std::vector<Work> first = snapshot();
  KernelProfiler::Get().Reset();
  workload();
  const std::vector<Work> second = snapshot();

  ASSERT_EQ(first.size(), second.size());
  int64_t total_calls = 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].calls, second[i].calls) << "kernel " << i;
    EXPECT_EQ(first[i].br, second[i].br) << "kernel " << i;
    EXPECT_EQ(first[i].bw, second[i].bw) << "kernel " << i;
    EXPECT_EQ(first[i].fl, second[i].fl) << "kernel " << i;
    total_calls += first[i].calls;
  }
  EXPECT_GT(total_calls, 0);
}

// FLEXGRAPH_PERF=off must resolve to the software fallback silently (the
// warning is reserved for a *failed* probe) and leave the analytic counters
// untouched.
TEST_F(ProfTest, PerfOffFallsBackSilentlyWithIdenticalAccounting) {
  const auto workload = [] {
    const Tensor a = Filled(6, 8);
    Tensor sum = Add(a, a);
    AddInPlace(sum, a);
    (void)RowSoftmax(sum);
  };

  setenv("FLEXGRAPH_PERF", "off", 1);
  ResetPerfAvailabilityForTest();
  const int64_t warnings_before = PerfWarningCountForTest();
  EXPECT_FALSE(PerfCountersEnabled());
  ASSERT_NE(PerfDisabledReason(), nullptr);
  EXPECT_STREQ(PerfDisabledReason(), "FLEXGRAPH_PERF=off");
  // Env-off is a choice, not a failure: no warning.
  EXPECT_EQ(PerfWarningCountForTest(), warnings_before);

  // Counter groups degrade to unavailable and read all-zero samples.
  PerfCounterGroup group;
  EXPECT_FALSE(group.available());
  const PerfSample sample = group.Read();
  EXPECT_FALSE(sample.has_cycles);
  EXPECT_EQ(sample.cycles, 0u);

  workload();
  const ProfilerReport off_report = KernelProfiler::Get().Aggregate();

  // Same workload with availability re-resolved without the override. In a
  // container the probe may fail (warning allowed, but at most one per
  // process); either way the analytic columns must not move.
  unsetenv("FLEXGRAPH_PERF");
  ResetPerfAvailabilityForTest();
  (void)PerfCountersEnabled();
  KernelProfiler::Get().Reset();
  workload();
  const ProfilerReport on_report = KernelProfiler::Get().Aggregate();
  EXPECT_LE(PerfWarningCountForTest(), 1);

  for (std::size_t i = 0; i < off_report.rows.size(); ++i) {
    EXPECT_EQ(off_report.rows[i].calls, on_report.rows[i].calls) << "kernel " << i;
    EXPECT_EQ(off_report.rows[i].bytes_read, on_report.rows[i].bytes_read)
        << "kernel " << i;
    EXPECT_EQ(off_report.rows[i].bytes_written, on_report.rows[i].bytes_written)
        << "kernel " << i;
    EXPECT_EQ(off_report.rows[i].flops, on_report.rows[i].flops) << "kernel " << i;
  }

  setenv("FLEXGRAPH_PERF", "off", 1);  // leave a known state for later tests
  ResetPerfAvailabilityForTest();
}

TEST_F(ProfTest, EveryKernelHasAName) {
  for (int k = 0; k < kNumProfKernels; ++k) {
    const char* name = ProfKernelName(static_cast<ProfKernel>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::strlen(name), 0u) << "kernel " << k;
  }
}

}  // namespace
}  // namespace obs
}  // namespace flexgraph
