// Scalar-vs-SIMD bitwise parity for the dispatched kernel suite.
//
// The determinism contract says every KernelTable variant keeps one output
// element per vector lane, never reassociates an accumulation and never
// fuses a multiply-add — so for identical inputs every variant must produce
// byte-identical outputs. These tests sweep every reduce op, odd feature
// dims (1, 3, 17, 63, 65 — exercising full vectors, partial vectors, and
// pure tail lanes at every lane width), empty segments, and both the
// gathered and contiguous segment layouts, under every ISA level the host
// supports (SetIsa; CI additionally pins FLEXGRAPH_ISA at process level).
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fused_ops.h"
#include "src/exec/cpu_features.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/ops_sparse.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace {

const int64_t kDims[] = {1, 3, 17, 63, 64, 65, 128};
const simd::Reduce kReduces[] = {simd::Reduce::kSum, simd::Reduce::kMean, simd::Reduce::kMax,
                                 simd::Reduce::kMin};

std::vector<simd::IsaLevel> SupportedLevels() {
  std::vector<simd::IsaLevel> levels;
  for (int l = 0; l <= static_cast<int>(simd::IsaLevel::kAvx512); ++l) {
    const auto level = static_cast<simd::IsaLevel>(l);
    if (simd::SetIsa(level)) {
      levels.push_back(level);
    }
  }
  simd::ResetIsa();
  return levels;
}

// Restores the startup dispatch after each test body.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetIsa(); }
};

// Runs `fn` once per supported ISA level and asserts the produced tensor is
// bitwise identical to the scalar table's output.
void ExpectParityAcrossLevels(const std::function<Tensor()>& fn) {
  ASSERT_TRUE(simd::SetIsa(simd::IsaLevel::kScalar));
  const Tensor reference = fn();
  for (simd::IsaLevel level : SupportedLevels()) {
    ASSERT_TRUE(simd::SetIsa(level));
    const Tensor got = fn();
    EXPECT_TRUE(BitwiseEqual(reference, got)) << "isa=" << simd::IsaName(level);
  }
  simd::ResetIsa();
}

TEST(CpuFeaturesTest, NamesRoundTrip) {
  for (int l = 0; l <= static_cast<int>(simd::IsaLevel::kAvx512); ++l) {
    const auto level = static_cast<simd::IsaLevel>(l);
    simd::IsaLevel parsed;
    ASSERT_TRUE(simd::ParseIsaName(simd::IsaName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  simd::IsaLevel parsed;
  EXPECT_TRUE(simd::ParseIsaName("neon", &parsed));
  EXPECT_EQ(parsed, simd::IsaLevel::kSse2);
  EXPECT_FALSE(simd::ParseIsaName("avx9000", &parsed));
  EXPECT_FALSE(simd::ParseIsaName("", &parsed));
}

TEST(CpuFeaturesTest, DetectionIsMonotonic) {
  // Every level at or below the detected one is supported, scalar always.
  EXPECT_TRUE(simd::IsaSupported(simd::IsaLevel::kScalar));
  const simd::IsaLevel max = simd::DetectIsa();
  for (int l = 0; l <= static_cast<int>(max); ++l) {
    EXPECT_TRUE(simd::IsaSupported(static_cast<simd::IsaLevel>(l)));
  }
}

TEST_F(SimdTest, SetIsaRebindsAndRejectsUnsupported) {
  for (simd::IsaLevel level : SupportedLevels()) {
    ASSERT_TRUE(simd::SetIsa(level));
    EXPECT_EQ(simd::ActiveIsa(), level);
    EXPECT_EQ(simd::Kernels().level, level);
  }
  if (!simd::IsaSupported(simd::IsaLevel::kAvx512)) {
    const simd::IsaLevel before = simd::ActiveIsa();
    EXPECT_FALSE(simd::SetIsa(simd::IsaLevel::kAvx512));
    EXPECT_EQ(simd::ActiveIsa(), before);  // binding unchanged on failure
  }
  simd::ResetIsa();
  EXPECT_EQ(simd::ActiveIsa(), simd::Kernels().level);
}

TEST_F(SimdTest, VariantTablesReportTheirLevel) {
  EXPECT_EQ(simd::GetScalarTable()->level, simd::IsaLevel::kScalar);
  EXPECT_EQ(simd::GetScalarTable()->vector_width, 1);
  // Compiled-in variants report their own level; compiled-out ones alias the
  // scalar table. Either way the pointerful table is self-describing.
  for (const auto* table : {simd::GetSse2Table(), simd::GetAvx2Table(), simd::GetAvx512Table()}) {
    ASSERT_NE(table, nullptr);
    EXPECT_GE(table->vector_width, 1);
  }
}

TEST_F(SimdTest, RowPrimitivesBitwiseParity) {
  Rng rng(11);
  for (int64_t d : kDims) {
    const Tensor a = RandomTensor(1, d, rng);
    const Tensor b = RandomTensor(1, d, rng);
    for (int variant = 0; variant < 5; ++variant) {
      ExpectParityAcrossLevels([&]() {
        Tensor dst = a;
        const simd::KernelTable& kt = simd::Kernels();
        switch (variant) {
          case 0:
            kt.add_row(dst.data(), b.data(), d);
            break;
          case 1:
            kt.max_row(dst.data(), b.data(), d);
            break;
          case 2:
            kt.min_row(dst.data(), b.data(), d);
            break;
          case 3:
            kt.scale_row(dst.data(), 0.37f, d);
            break;
          default:
            kt.axpy_row(dst.data(), b.data(), -1.61f, d);
            break;
        }
        return dst;
      });
    }
  }
}

// Segment fixture with empty, single-row, and wide segments plus a gather id
// map that revisits rows (the fused kernel's real access pattern).
struct SegmentFixture {
  Tensor x;
  std::vector<uint32_t> ids;
  std::vector<uint64_t> offsets;
  int64_t num_segments() const { return static_cast<int64_t>(offsets.size()) - 1; }
};

SegmentFixture MakeSegments(int64_t d, uint64_t seed) {
  Rng rng(seed);
  SegmentFixture f;
  const int64_t rows = 40;
  f.x = RandomTensor(rows, d, rng);
  // Segment widths: empty head, singleton, a run past the prefetch distance,
  // empty middle, medium, empty tail.
  const int64_t widths[] = {0, 1, 17, 0, 6, 0};
  f.offsets.push_back(0);
  for (int64_t w : widths) {
    for (int64_t i = 0; i < w; ++i) {
      f.ids.push_back(rng.NextBounded(static_cast<uint32_t>(rows)));
    }
    f.offsets.push_back(f.ids.size());
  }
  return f;
}

TEST_F(SimdTest, SegmentReduceGatherBitwiseParity) {
  for (int64_t d : kDims) {
    const SegmentFixture f = MakeSegments(d, 23 + static_cast<uint64_t>(d));
    for (simd::Reduce kind : kReduces) {
      ExpectParityAcrossLevels([&]() {
        Tensor out(f.num_segments(), d);  // zeroed, as the kernel contract requires
        simd::Kernels().segment_reduce(f.x.data(), d, f.ids.data(), f.offsets.data(), 0,
                                       f.num_segments(), kind, out.data());
        return out;
      });
    }
  }
}

TEST_F(SimdTest, SegmentReduceContiguousBitwiseParity) {
  for (int64_t d : kDims) {
    Rng rng(5 + static_cast<uint64_t>(d));
    const Tensor values = RandomTensor(24, d, rng);
    const std::vector<uint64_t> offsets = {0, 0, 1, 18, 18, 24};
    const auto num_segments = static_cast<int64_t>(offsets.size()) - 1;
    for (simd::Reduce kind : kReduces) {
      ExpectParityAcrossLevels([&]() {
        Tensor out(num_segments, d);
        simd::Kernels().segment_reduce(values.data(), d, nullptr, offsets.data(), 0,
                                      num_segments, kind, out.data());
        return out;
      });
    }
  }
}

TEST_F(SimdTest, IndirectBackwardBitwiseParity) {
  for (int64_t d : kDims) {
    const SegmentFixture f = MakeSegments(d, 31 + static_cast<uint64_t>(d));
    // Invert leaf ids -> (source row, contributing segments) in edge order.
    const int64_t src_rows = f.x.rows();
    std::vector<std::vector<uint32_t>> by_src(static_cast<std::size_t>(src_rows));
    for (int64_t s = 0; s < f.num_segments(); ++s) {
      for (uint64_t e = f.offsets[static_cast<std::size_t>(s)];
           e < f.offsets[static_cast<std::size_t>(s) + 1]; ++e) {
        by_src[f.ids[e]].push_back(static_cast<uint32_t>(s));
      }
    }
    std::vector<uint64_t> src_offsets = {0};
    std::vector<uint32_t> src_segments;
    for (const auto& segs : by_src) {
      src_segments.insert(src_segments.end(), segs.begin(), segs.end());
      src_offsets.push_back(src_segments.size());
    }
    Rng rng(77);
    const Tensor grad = RandomTensor(f.num_segments(), d, rng);
    for (simd::Reduce kind : {simd::Reduce::kSum, simd::Reduce::kMean}) {
      ExpectParityAcrossLevels([&]() {
        Tensor gx(src_rows, d);
        simd::Kernels().indirect_backward(grad.data(), d, src_offsets.data(),
                                          src_segments.data(), f.offsets.data(), kind, 0,
                                          src_rows, gx.data());
        return gx;
      });
    }
  }
}

TEST_F(SimdTest, ScatterRowsBitwiseParity) {
  for (int64_t d : kDims) {
    Rng rng(13 + static_cast<uint64_t>(d));
    const int64_t rows = 30;
    const int64_t out_rows = 9;
    const Tensor values = RandomTensor(rows, d, rng);
    std::vector<uint32_t> index(rows);
    for (auto& i : index) {
      i = rng.NextBounded(static_cast<uint32_t>(out_rows));
    }
    for (simd::Reduce kind : {simd::Reduce::kSum, simd::Reduce::kMax, simd::Reduce::kMin}) {
      ExpectParityAcrossLevels([&]() {
        Tensor out(out_rows, d);
        if (kind != simd::Reduce::kSum) {
          out.Fill(kind == simd::Reduce::kMax ? -1e30f : 1e30f);
        }
        simd::Kernels().scatter_rows(values.data(), d, index.data(), rows, kind, out.data());
        return out;
      });
    }
  }
}

TEST_F(SimdTest, GroupReduceBitwiseParity) {
  for (int64_t d : kDims) {
    for (int64_t group : {1, 3, 7}) {
      Rng rng(41 + static_cast<uint64_t>(d));
      const int64_t n = 11;
      const Tensor values = RandomTensor(n * group, d, rng);
      for (simd::Reduce kind : kReduces) {
        ExpectParityAcrossLevels([&]() {
          Tensor out(n, d);
          simd::Kernels().group_reduce(values.data(), d, group, kind, 0, n, out.data());
          return out;
        });
      }
    }
  }
}

// Naive reference GEMM with the contract's exact accumulation order
// (kk-ascending, one rounding per multiply and per add). The product goes
// through a volatile so this TU — built with the compiler's default
// -ffp-contract=fast — cannot fuse mul+add into an FMA; the kernel variants
// are compiled with contraction off and must match this double-rounded form.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < a.cols(); ++kk) {
        volatile float p = a.At(i, kk) * b.At(kk, j);
        acc = acc + p;
      }
      c.At(i, j) = acc;
    }
  }
  return c;
}

TEST_F(SimdTest, PackedGemmBitwiseParityAndCorrectness) {
  Rng rng(3);
  // m sweeps past the MR=4 row blocking; n sweeps tail lanes.
  for (int64_t n : kDims) {
    const int64_t m = 7;
    const int64_t k = 19;
    const Tensor a = RandomTensor(m, k, rng);
    const Tensor b = RandomTensor(k, n, rng);
    ExpectParityAcrossLevels([&]() {
      const simd::KernelTable& kt = simd::Kernels();
      Tensor panel = Tensor::Uninitialized(k, simd::PackedStride(n));
      kt.gemm_pack_b(b.data(), k, n, /*transpose=*/false, panel.data());
      Tensor c = Tensor::Uninitialized(m, n);
      kt.gemm(a.data(), k, panel.data(), k, n, c.data(), n, 0, m);
      return c;
    });
    // Scalar-table result must ALSO match the naive reference exactly — the
    // register-blocked micro-kernel changes the loop nest, not the per
    // element rounding sequence.
    ASSERT_TRUE(simd::SetIsa(simd::IsaLevel::kScalar));
    const simd::KernelTable& kt = simd::Kernels();
    Tensor panel = Tensor::Uninitialized(k, simd::PackedStride(n));
    kt.gemm_pack_b(b.data(), k, n, false, panel.data());
    Tensor c = Tensor::Uninitialized(m, n);
    kt.gemm(a.data(), k, panel.data(), k, n, c.data(), n, 0, m);
    EXPECT_TRUE(BitwiseEqual(NaiveMatMul(a, b), c)) << "n=" << n;
  }
}

TEST_F(SimdTest, TransposedPackBitwiseParity) {
  Rng rng(9);
  for (int64_t n : {1, 17, 65}) {
    const int64_t m = 6;
    const int64_t k = 21;
    const Tensor a = RandomTensor(m, k, rng);
    const Tensor bt = RandomTensor(n, k, rng);  // row-major B^T
    ExpectParityAcrossLevels([&]() {
      const simd::KernelTable& kt = simd::Kernels();
      Tensor panel = Tensor::Uninitialized(k, simd::PackedStride(n));
      kt.gemm_pack_b(bt.data(), k, n, /*transpose=*/true, panel.data());
      Tensor c = Tensor::Uninitialized(m, n);
      kt.gemm(a.data(), k, panel.data(), k, n, c.data(), n, 0, m);
      return c;
    });
  }
}

TEST_F(SimdTest, GemmTransABitwiseParity) {
  Rng rng(15);
  for (int64_t n : {3, 63, 65}) {
    const int64_t k = 12;
    const int64_t m = 10;
    Tensor a = RandomTensor(k, m, rng);
    // Sprinkle exact zeros to exercise the sparse-gradient skip.
    for (int64_t i = 0; i < a.numel(); i += 3) {
      a.data()[i] = 0.0f;
    }
    const Tensor b = RandomTensor(k, n, rng);
    ExpectParityAcrossLevels([&]() {
      Tensor c(m, n);
      simd::Kernels().gemm_trans_a(a.data(), k, m, b.data(), n, c.data(), 0, m);
      return c;
    });
  }
}

// Naive reference for gemm_trans_a with the contract's exact per-element
// chain: c[i][j] folds a[kk][i] * b[kk][j] over kk ascending from +0,
// skipping kk where a[kk][i] == 0. Rows outside [i_lo, i_hi) keep `fill`.
// The volatile product keeps this TU from contracting mul+add into an FMA.
Tensor NaiveMatMulTransA(const Tensor& a, const Tensor& b, int64_t i_lo, int64_t i_hi,
                         float fill) {
  Tensor c(a.cols(), b.cols());
  c.Fill(fill);
  for (int64_t i = i_lo; i < i_hi; ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < a.rows(); ++kk) {
        const float aki = a.At(kk, i);
        if (aki == 0.0f) {
          continue;
        }
        volatile float p = aki * b.At(kk, j);
        acc = acc + p;
      }
      c.At(i, j) = acc;
    }
  }
  return c;
}

// Output-row ranges for an m-row gemm_trans_a: the whole range plus ranges
// that start and end off the 16-float blocks the tensor layer cuts at.
std::vector<std::pair<int64_t, int64_t>> TransARanges(int64_t m) {
  std::vector<std::pair<int64_t, int64_t>> ranges = {{0, m}};
  for (const auto& r : {std::pair<int64_t, int64_t>{1, m}, {m / 3, m - m / 5},
                        {5, m - 1}}) {
    if (r.first < r.second && std::find(ranges.begin(), ranges.end(), r) == ranges.end()) {
      ranges.push_back(r);
    }
  }
  return ranges;
}

TEST_F(SimdTest, GemmTransAMatchesNaiveReferenceAtEveryIsa) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  const float kFill = -7.5f;  // rows the call does not own must keep it
  for (const int64_t m : {1, 15, 16, 17, 33, 64, 65}) {
    for (const int64_t n : {1, 3, 5, 15, 16, 17, 32, 33, 64}) {
      const int64_t k = 23;
      Rng rng(static_cast<uint64_t>(1000 * m + n));
      Tensor a = RandomTensor(k, m, rng);
      Tensor b = RandomTensor(k, n, rng);
      // Exact zeros (and -0) sprinkled over a exercise the per-element skip.
      for (int64_t e = 0; e < a.numel(); e += 3) {
        a.data()[e] = (e % 2 == 0) ? 0.0f : -0.0f;
      }
      // b row 4 is all Inf against a row that is zero in every other column:
      // the zero columns must skip it, the rest turn ±Inf. b row 9 is all NaN
      // against an all-zero a row: no output element may see it.
      for (int64_t i = 0; i < m; ++i) {
        a.At(4, i) = (i % 2 == 0) ? 0.0f : 1.5f;
        a.At(9, i) = 0.0f;
      }
      for (int64_t j = 0; j < n; ++j) {
        b.At(4, j) = kInf;
        b.At(9, j) = kNan;
      }
      for (const auto& [i_lo, i_hi] : TransARanges(m)) {
        const Tensor want = NaiveMatMulTransA(a, b, i_lo, i_hi, kFill);
        for (simd::IsaLevel level : SupportedLevels()) {
          ASSERT_TRUE(simd::SetIsa(level));
          Tensor c(m, n);
          c.Fill(kFill);
          simd::Kernels().gemm_trans_a(a.data(), k, m, b.data(), n, c.data(), i_lo, i_hi);
          EXPECT_TRUE(BitwiseEqual(want, c))
              << "isa=" << simd::IsaName(level) << " m=" << m << " n=" << n << " rows=["
              << i_lo << ", " << i_hi << ")";
        }
      }
    }
  }
}

// `floats` floats that end flush against a PROT_NONE page, so a kernel that
// reads one element past them faults instead of reading a neighbour's bytes.
class GuardedFloats {
 public:
  explicit GuardedFloats(int64_t floats) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = static_cast<std::size_t>(floats) * sizeof(float);
    size_ = (bytes + page - 1) / page * page + page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(base, MAP_FAILED);
    base_ = static_cast<char*>(base);
    EXPECT_EQ(mprotect(base_ + size_ - page, page, PROT_NONE), 0);
    data_ = reinterpret_cast<float*>(base_ + size_ - page - bytes);
    std::fill(data_, data_ + floats, 1.0f);
  }
  ~GuardedFloats() { munmap(base_, size_); }
  GuardedFloats(const GuardedFloats&) = delete;
  GuardedFloats& operator=(const GuardedFloats&) = delete;

  const float* data() const { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t size_ = 0;
  float* data_ = nullptr;
};

// Every variant reads a only inside [0, k·m) and b only inside [0, k·n),
// whatever its compiler made of the register tiles.
TEST_F(SimdTest, GemmTransAReadsOnlyItsOperands) {
  for (const int64_t k : {1, 2, 3, 257}) {
    for (const int64_t m : {1, 4, 5, 17}) {
      for (const int64_t n : {1, 2, 5, 17}) {
        const GuardedFloats a(k * m);
        const GuardedFloats b(k * n);
        for (simd::IsaLevel level : SupportedLevels()) {
          ASSERT_TRUE(simd::SetIsa(level));
          std::vector<float> c(static_cast<std::size_t>(m * n));
          simd::Kernels().gemm_trans_a(a.data(), k, m, b.data(), n, c.data(), 0, m);
          EXPECT_EQ(c.back(), static_cast<float>(k))
              << "isa=" << simd::IsaName(level) << " k=" << k << " m=" << m << " n=" << n;
        }
      }
    }
  }
}

// The tensor-layer GEMMs fan out to the pool once k·n passes
// kMinParallelWork; every thread count must reproduce the 1-thread result
// bit for bit (and gemm_trans_a the naive reference).
TEST_F(SimdTest, DenseGemmsBitwiseAcrossThreadCounts) {
  struct RestoreThreads {
    ~RestoreThreads() { exec::SetNumThreads(0); }
  } restore;
  const int64_t m = 33;  // two whole 16-column blocks and a 1-column tail
  for (const int64_t n : {1, 5, 32}) {
    const int64_t k = exec::kMinParallelWork / n + 7;
    Rng rng(static_cast<uint64_t>(77 + n));
    Tensor x = RandomTensor(k, m, rng);
    for (int64_t e = 0; e < x.numel(); e += 5) {
      x.data()[e] = 0.0f;
    }
    const Tensor g = RandomTensor(k, n, rng);
    const Tensor xt = RandomTensor(m, k, rng);  // MatMul: [m, k] · [k, n]
    exec::SetNumThreads(1);
    const Tensor trans_a_ref = MatMulTransA(x, g);
    const Tensor matmul_ref = MatMul(xt, g);
    EXPECT_TRUE(BitwiseEqual(NaiveMatMulTransA(x, g, 0, m, 0.0f), trans_a_ref)) << "n=" << n;
    for (const int threads : {2, 4, 8}) {
      exec::SetNumThreads(threads);
      EXPECT_TRUE(BitwiseEqual(trans_a_ref, MatMulTransA(x, g)))
          << "MatMulTransA n=" << n << " threads=" << threads;
      EXPECT_TRUE(BitwiseEqual(matmul_ref, MatMul(xt, g)))
          << "MatMul n=" << n << " threads=" << threads;
    }
  }
}

// End-to-end through the tensor layer: the public ops must dispatch through
// the active table and stay bitwise stable across levels.
TEST_F(SimdTest, TensorOpsBitwiseParityAcrossLevels) {
  Rng rng(29);
  const Tensor a = RandomTensor(33, 17, rng);
  const Tensor b = RandomTensor(17, 65, rng);
  ExpectParityAcrossLevels([&]() { return MatMul(a, b); });

  const Tensor bt = RandomTensor(65, 17, rng);
  ExpectParityAcrossLevels([&]() { return MatMulTransB(a, bt); });

  const Tensor a2 = RandomTensor(12, 33, rng);
  const Tensor b2 = RandomTensor(12, 65, rng);
  ExpectParityAcrossLevels([&]() { return MatMulTransA(a2, b2); });

  const Tensor grouped = RandomTensor(30, 63, rng);
  ExpectParityAcrossLevels([&]() { return GroupSumRows(grouped, 3); });
  ExpectParityAcrossLevels([&]() { return GroupMeanRows(grouped, 3); });
  ExpectParityAcrossLevels([&]() { return GroupMaxRows(grouped, 3); });

  const SegmentFixture f = MakeSegments(65, 99);
  std::vector<VertexId> leaf_ids(f.ids.begin(), f.ids.end());
  for (ReduceKind kind : {ReduceKind::kSum, ReduceKind::kMean, ReduceKind::kMax}) {
    ExpectParityAcrossLevels(
        [&]() { return FusedSegmentGatherReduce(f.x, leaf_ids, f.offsets, kind, {}); });
  }
}

TEST(SimdLayoutTest, PackedStrideIsCacheLinePadded) {
  EXPECT_EQ(simd::PackedStride(1), 16);
  EXPECT_EQ(simd::PackedStride(16), 16);
  EXPECT_EQ(simd::PackedStride(17), 32);
  EXPECT_EQ(simd::PackedStride(64), 64);
  EXPECT_EQ(simd::PackedStride(65), 80);
  for (int64_t n = 1; n < 200; ++n) {
    EXPECT_GE(simd::PackedStride(n), n);
    EXPECT_EQ(simd::PackedStride(n) % simd::kPackAlignFloats, 0);
  }
}

}  // namespace
}  // namespace flexgraph
