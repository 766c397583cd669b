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
#include <cmath>
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

// `count` elements that end flush against a PROT_NONE page, so a kernel that
// reads or writes one element past them faults instead of touching a
// neighbour's bytes.
template <typename T>
class Guarded {
 public:
  explicit Guarded(int64_t count, T fill = T(1)) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
    size_ = (bytes + page - 1) / page * page + page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(base, MAP_FAILED);
    base_ = static_cast<char*>(base);
    EXPECT_EQ(mprotect(base_ + size_ - page, page, PROT_NONE), 0);
    data_ = reinterpret_cast<T*>(base_ + size_ - page - bytes);
    std::fill(data_, data_ + count, fill);
  }
  template <typename C>
  explicit Guarded(const C& values) : Guarded(static_cast<int64_t>(values.size())) {
    std::copy(values.begin(), values.end(), data_);
  }
  ~Guarded() { munmap(base_, size_); }
  Guarded(const Guarded&) = delete;
  Guarded& operator=(const Guarded&) = delete;

  T* data() { return data_; }
  const T* data() const { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t size_ = 0;
  T* data_ = nullptr;
};

using GuardedFloats = Guarded<float>;

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

// ---- MAGNN instance attention: the recomputing kernels ----

// The float contract spelled out with plain scalar code, one statement per
// rounding. Products feeding an add go through a volatile so this TU
// (default -ffp-contract=fast) cannot fuse them; the two FMA chains are
// explicit std::fma.
std::vector<float> RefMean(const InstanceLevels& f, int64_t i) {
  std::vector<float> m(static_cast<std::size_t>(f.d), 0.0f);
  const uint64_t e0 = f.leaf_offsets[static_cast<std::size_t>(i)];
  const uint64_t e1 = f.leaf_offsets[static_cast<std::size_t>(i) + 1];
  for (uint64_t e = e0; e < e1; ++e) {
    for (int64_t j = 0; j < f.d; ++j) {
      m[static_cast<std::size_t>(j)] = m[static_cast<std::size_t>(j)] + f.x.At(f.ids[e], j);
    }
  }
  if (e1 > e0) {
    const float inv = 1.0f / static_cast<float>(e1 - e0);
    for (float& v : m) {
      v = v * inv;
    }
  }
  return m;
}

struct RefAttention {
  Tensor out;    // [S, d]
  Tensor alpha;  // [I, 1]
};

RefAttention RefInstanceAttention(const InstanceLevels& f, const Tensor& w, float bias) {
  RefAttention r{Tensor(f.slots(), f.d), Tensor(f.instances(), 1)};
  for (int64_t s = 0; s < f.slots(); ++s) {
    const auto lo = static_cast<int64_t>(f.slot_offsets[static_cast<std::size_t>(s)]);
    const auto hi = static_cast<int64_t>(f.slot_offsets[static_cast<std::size_t>(s) + 1]);
    if (lo == hi) {
      continue;
    }
    for (int64_t i = lo; i < hi; ++i) {
      const std::vector<float> m = RefMean(f, i);
      float acc = 0.0f;
      for (int64_t k = 0; k < f.d; ++k) {
        volatile float p = m[static_cast<std::size_t>(k)] * w.At(k, 0);
        acc = acc + p;
      }
      r.alpha.At(i, 0) = acc + bias;
    }
    float mx = r.alpha.At(lo, 0);
    for (int64_t i = lo + 1; i < hi; ++i) {
      mx = std::max(mx, r.alpha.At(i, 0));
    }
    float sum = 0.0f;
    for (int64_t i = lo; i < hi; ++i) {
      const float e = std::exp(r.alpha.At(i, 0) - mx);
      r.alpha.At(i, 0) = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (int64_t i = lo; i < hi; ++i) {
      r.alpha.At(i, 0) *= inv;
    }
    for (int64_t i = lo; i < hi; ++i) {
      const std::vector<float> m = RefMean(f, i);
      for (int64_t j = 0; j < f.d; ++j) {
        volatile float p = r.alpha.At(i, 0) * m[static_cast<std::size_t>(j)];
        r.out.At(s, j) = r.out.At(s, j) + p;
      }
    }
  }
  return r;
}

Tensor RefScoreGrad(const InstanceLevels& f, const Tensor& alpha, const Tensor& grad) {
  Tensor dscore(f.instances(), 1);
  for (int64_t s = 0; s < f.slots(); ++s) {
    const auto lo = static_cast<int64_t>(f.slot_offsets[static_cast<std::size_t>(s)]);
    const auto hi = static_cast<int64_t>(f.slot_offsets[static_cast<std::size_t>(s) + 1]);
    for (int64_t i = lo; i < hi; ++i) {
      const std::vector<float> m = RefMean(f, i);
      float ga = 0.0f;
      for (int64_t j = 0; j < f.d; ++j) {
        ga = std::fma(grad.At(s, j), m[static_cast<std::size_t>(j)], ga);
      }
      dscore.At(i, 0) = ga;
    }
    float dot = 0.0f;
    for (int64_t i = lo; i < hi; ++i) {
      dot = std::fma(alpha.At(i, 0), dscore.At(i, 0), dot);
    }
    for (int64_t i = lo; i < hi; ++i) {
      dscore.At(i, 0) = alpha.At(i, 0) * (dscore.At(i, 0) - dot);
    }
  }
  return dscore;
}

Tensor RefScoreWeightGrad(const InstanceLevels& f, const Tensor& dscore) {
  Tensor dw(f.d, 1);
  for (int64_t k = 0; k < f.d; ++k) {
    float acc = 0.0f;
    for (int64_t i = 0; i < f.instances(); ++i) {
      const float m = RefMean(f, i)[static_cast<std::size_t>(k)];
      if (m == 0.0f) {
        continue;
      }
      volatile float p = m * dscore.At(i, 0);
      acc = acc + p;
    }
    dw.At(k, 0) = acc;
  }
  return dw;
}

Tensor RefInputGrad(const InstanceLevels& f, const Tensor& alpha, const Tensor& dscore,
                    const Tensor& w, const Tensor& grad) {
  Tensor gx(f.vertices(), f.d);
  for (int64_t v = 0; v < f.vertices(); ++v) {
    for (uint64_t idx = f.src_offsets[static_cast<std::size_t>(v)];
         idx < f.src_offsets[static_cast<std::size_t>(v) + 1]; ++idx) {
      const uint32_t i = f.src_segments[idx];
      const float scale =
          1.0f / static_cast<float>(f.leaf_offsets[i + 1] - f.leaf_offsets[i]);
      for (int64_t j = 0; j < f.d; ++j) {
        volatile float q = alpha.At(i, 0) * grad.At(f.slot_of[i], j);
        volatile float p = dscore.At(i, 0) * w.At(j, 0);
        const float t = 0.0f + p;
        const float g = q + t;
        volatile float r = scale * g;
        gx.At(v, j) = gx.At(v, j) + r;
      }
    }
  }
  return gx;
}

// Slot sizes covering empty slots (first, between and last), one-instance
// slots, one whole 16-lane group, and a slot past the 32-instance cap that
// leaves a short last group at every lane width.
const std::vector<int64_t> kSlotSizes = {0, 1, 3, 0, 37, 2, 16, 1, 5, 0};

Tensor Poisoned(int64_t rows, int64_t cols) {
  return Tensor::Full(rows, cols, std::numeric_limits<float>::quiet_NaN());
}

// The two fixtures every instance-attention kernel test runs: random
// instances (runs longer than width 1 almost never occur) and MAGNN-shaped
// slots full of prefix runs.
std::vector<std::pair<std::string, InstanceLevels>> InstanceFixtures(int64_t vertices, int64_t d,
                                                                     Rng& rng) {
  std::vector<std::pair<std::string, InstanceLevels>> fixtures;
  fixtures.emplace_back("random", MakeInstanceLevels(vertices, d, kSlotSizes, rng));
  const InstanceSlots slots = MagnnShapedSlots(vertices, rng);
  fixtures.emplace_back("magnn-shaped", MakeInstanceLevelsFromSlots(vertices, d, slots, rng));
  return fixtures;
}

TEST_F(SimdTest, InstanceAttentionKernelsMatchSpelledOutReference) {
  for (const int64_t d : {1, 7, 16, 33, 64}) {
    Rng rng(static_cast<uint64_t>(600 + d));
    for (const auto& [name, f] : InstanceFixtures(23, d, rng)) {
      const Tensor w = RandomTensor(d, 1, rng);
      const float bias = 0.375f;
      const Tensor grad = RandomTensor(f.slots(), d, rng);
      const RefAttention ref = RefInstanceAttention(f, w, bias);
      const Tensor ref_dscore = RefScoreGrad(f, ref.alpha, grad);
      // An Inf score gradient on an all-zero instance (row 0 alone): pass
      // B's zero skip keeps it out of every dw column, pass C spreads it
      // into row 0's gradient.
      Tensor dscore = ref_dscore;
      int64_t zero_instance = -1;
      for (int64_t i = 0; i < f.instances() && zero_instance < 0; ++i) {
        const uint64_t e0 = f.leaf_offsets[static_cast<std::size_t>(i)];
        if (f.leaf_offsets[static_cast<std::size_t>(i) + 1] == e0 + 1 && f.ids[e0] == 0) {
          zero_instance = i;
        }
      }
      ASSERT_GE(zero_instance, 0) << name << " fixture has no all-zero instance";
      dscore.At(zero_instance, 0) = std::numeric_limits<float>::infinity();
      const Tensor ref_dw = RefScoreWeightGrad(f, dscore);
      const Tensor ref_gx = RefInputGrad(f, ref.alpha, dscore, w, grad);
      for (int64_t k = 0; k < d; ++k) {
        ASSERT_TRUE(std::isfinite(ref_dw.At(k, 0))) << "the zero skip must drop the Inf";
      }

      for (simd::IsaLevel level : SupportedLevels()) {
        ASSERT_TRUE(simd::SetIsa(level));
        const simd::KernelTable& kt = simd::Kernels();
        const std::string where = name + " isa=" + std::string(simd::IsaName(level)) +
                                  " d=" + std::to_string(d);
        // Whole range in one task, then split at a slot boundary with a tile
        // each (in the MAGNN-shaped fixture, where a prefix continues into
        // the next slot); outputs, α and tiles start as NaN, so a read of an
        // element no kernel wrote shows.
        for (const int64_t cut : {f.slots(), int64_t{4}}) {
          Tensor out = Poisoned(f.slots(), d);
          Tensor alpha = Poisoned(f.instances(), 1);
          Tensor dsc = Poisoned(f.instances(), 1);
          Tensor tiles = Poisoned(2, f.longest_slot() * d);
          const std::pair<int64_t, int64_t> ranges[] = {{0, cut}, {cut, f.slots()}};
          for (int t = 0; t < 2; ++t) {
            kt.instance_attention(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                                  f.slot_offsets.data(), w.data(), bias, ranges[t].first,
                                  ranges[t].second, tiles.Row(t), alpha.data(), out.data());
          }
          EXPECT_TRUE(BitwiseEqual(ref.out, out)) << where << " cut=" << cut;
          EXPECT_TRUE(BitwiseEqual(ref.alpha, alpha)) << where << " cut=" << cut;
          tiles = Poisoned(2, f.longest_slot() * d);
          for (int t = 0; t < 2; ++t) {
            kt.instance_attention_grad(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                                       f.slot_offsets.data(), ref.alpha.data(), grad.data(),
                                       ranges[t].first, ranges[t].second, tiles.Row(t),
                                       dsc.data());
          }
          EXPECT_TRUE(BitwiseEqual(ref_dscore, dsc)) << where << " cut=" << cut;
        }
        // Pass B over all columns at once and one 16-column block per call.
        Tensor dw = Poisoned(d, 1);
        kt.instance_attention_dw(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                                 f.instances(), dscore.data(), 0, d, dw.data());
        EXPECT_TRUE(BitwiseEqual(ref_dw, dw)) << where;
        dw = Poisoned(d, 1);
        for (int64_t k0 = 0; k0 < d; k0 += simd::kPackAlignFloats) {
          kt.instance_attention_dw(f.x.data(), d, f.ids.data(), f.leaf_offsets.data(),
                                   f.instances(), dscore.data(), k0,
                                   std::min(d, k0 + simd::kPackAlignFloats), dw.data());
        }
        EXPECT_TRUE(BitwiseEqual(ref_dw, dw)) << where << " per block";
        // Pass C over all source rows, then split.
        for (const int64_t cut : {f.vertices(), int64_t{9}}) {
          Tensor gx(f.vertices(), d);
          kt.instance_attention_input_grad(grad.data(), d, f.slot_of.data(), ref.alpha.data(),
                                           dscore.data(), w.data(), f.src_offsets.data(),
                                           f.src_segments.data(), f.leaf_offsets.data(), 0,
                                           cut, gx.data());
          kt.instance_attention_input_grad(grad.data(), d, f.slot_of.data(), ref.alpha.data(),
                                           dscore.data(), w.data(), f.src_offsets.data(),
                                           f.src_segments.data(), f.leaf_offsets.data(), cut,
                                           f.vertices(), gx.data());
          EXPECT_TRUE(BitwiseEqual(ref_gx, gx)) << where << " cut=" << cut;
        }
      }
    }
  }
}

// Every variant of every instance-attention kernel reads and writes only
// inside its operands, whatever its compiler made of the register tiles and
// the in-register transpose: each array ends flush against a guard page.
TEST_F(SimdTest, InstanceAttentionKernelsTouchOnlyTheirOperands) {
  for (const int64_t d : {1, 7, 16, 33, 64}) {
    Rng rng(static_cast<uint64_t>(700 + d));
    for (const auto& [name, f] : InstanceFixtures(19, d, rng)) {
      const int64_t n_inst = f.instances();
      const Guarded<float> x(std::vector<float>(f.x.data(), f.x.data() + f.x.numel()));
      const Guarded<uint32_t> ids(f.ids);
      const Guarded<uint64_t> leaf_offsets(f.leaf_offsets);
      const Guarded<uint64_t> slot_offsets(f.slot_offsets);
      const Guarded<uint32_t> slot_of(f.slot_of);
      const Guarded<uint64_t> src_offsets(f.src_offsets);
      const Guarded<uint32_t> src_segments(f.src_segments);
      const Guarded<float> w(d, 0.5f);
      const Guarded<float> grad(f.slots() * d, 0.25f);
      for (simd::IsaLevel level : SupportedLevels()) {
        ASSERT_TRUE(simd::SetIsa(level));
        const simd::KernelTable& kt = simd::Kernels();
        const std::string where = name + " isa=" + std::string(simd::IsaName(level));
        Guarded<float> tile(f.longest_slot() * d);
        Guarded<float> alpha(n_inst);
        Guarded<float> out(f.slots() * d);
        Guarded<float> dscore(n_inst);
        Guarded<float> dw(d);
        Guarded<float> gx(f.vertices() * d, 0.0f);
        kt.instance_attention(x.data(), d, ids.data(), leaf_offsets.data(), slot_offsets.data(),
                              w.data(), 0.1f, 0, f.slots(), tile.data(), alpha.data(),
                              out.data());
        kt.instance_attention_grad(x.data(), d, ids.data(), leaf_offsets.data(),
                                   slot_offsets.data(), alpha.data(), grad.data(), 0, f.slots(),
                                   tile.data(), dscore.data());
        kt.instance_attention_dw(x.data(), d, ids.data(), leaf_offsets.data(), n_inst,
                                 dscore.data(), 0, d, dw.data());
        kt.instance_attention_input_grad(grad.data(), d, slot_of.data(), alpha.data(),
                                         dscore.data(), w.data(), src_offsets.data(),
                                         src_segments.data(), leaf_offsets.data(), 0,
                                         f.vertices(), gx.data());
        // The last slot of the random fixture is empty, so its row is the
        // zeros the kernel wrote; the MAGNN-shaped one's holds one width-0
        // instance, whose mean is zero.
        EXPECT_EQ(out.data()[f.slots() * d - 1], 0.0f) << where;
        EXPECT_TRUE(std::isfinite(dw.data()[d - 1])) << where;
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
