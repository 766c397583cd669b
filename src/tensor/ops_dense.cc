#include "src/tensor/ops_dense.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/obs/prof.h"
#include "src/tensor/workspace.h"

namespace flexgraph {

namespace {

using exec::kMinParallelWork;
using exec::RowGrain;

// Profiler accounting for the non-KernelTable loops in this file (see
// src/obs/prof.h). Scopes sit inside the parallel body — one per chunk, on
// the worker thread, like the SIMD shims — and every byte/FLOP formula is
// linear in the chunk range with no per-chunk constant, so the totals are
// independent of how ParallelFor splits the range (which varies with the
// thread count). prof_test.cc pins these formulas.
using obs::ProfKernel;
using obs::TimedKernelScope;
constexpr int64_t kProfF = static_cast<int64_t>(sizeof(float));

// Packs B (or Bᵀ) into a cache-line-padded [k × PackedStride(n)] panel in the
// workspace arena, then runs the register-blocked micro-kernel over disjoint
// output-row ranges. Per output element the kk-ascending accumulation order
// matches the sequential scalar kernel exactly, so results are bitwise
// identical across ISA levels and thread counts.
Tensor PackedGemm(const Tensor& a, const Tensor& b, bool b_transposed) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b_transposed ? b.rows() : b.cols();
  Tensor c = WsTensorUninit(m, n);
  Tensor panel = WsTensorUninit(k, simd::PackedStride(n));
  const simd::KernelTable& kt = simd::Kernels();
  kt.gemm_pack_b(b.data(), k, n, b_transposed, panel.data());
  exec::ParallelFor(0, m, RowGrain(k * n), [&](int64_t row_lo, int64_t row_hi) {
    kt.gemm(a.data(), k, panel.data(), k, n, c.data(), n, row_lo, row_hi);
  });
  return c;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FLEX_CHECK_EQ(a.cols(), b.rows());
  return PackedGemm(a, b, /*b_transposed=*/false);
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  FLEX_CHECK_EQ(a.cols(), b.cols());
  // Transpose-packing B turns the j-strided dot products into the same
  // j-contiguous micro-kernel as MatMul, with the kk reduction order intact.
  return PackedGemm(a, b, /*b_transposed=*/true);
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  FLEX_CHECK_EQ(a.rows(), b.rows());
  const int64_t k = a.rows();
  const int64_t m = a.cols();
  const int64_t n = b.cols();
  // The kernel overwrites every c row it owns, so c needs no zero fill.
  Tensor c = WsTensorUninit(m, n);
  // Tasks own whole blocks of 16 of a's columns — 16·n floats of c, whole
  // cache lines, so no two tasks write one line — and run all of k: each
  // output element keeps its single kk-ascending chain (a split of k would
  // reorder its sums). a is the layer's forward input and b the output
  // gradient, so a block streams its 64-byte slice of every a row plus b.
  constexpr int64_t kBlock = simd::kPackAlignFloats;
  const int64_t blocks = (m + kBlock - 1) / kBlock;
  const simd::KernelTable& kt = simd::Kernels();
  exec::ParallelFor(0, blocks, RowGrain(kBlock * k * n), [&](int64_t lo, int64_t hi) {
    kt.gemm_trans_a(a.data(), k, m, b.data(), n, c.data(), lo * kBlock,
                    std::min(m, hi * kBlock));
  });
  return c;
}

namespace {

// Flat elementwise map over [0, n): parallel ranges are disjoint, each output
// element written once. `reads_per_elem` is the number of input arrays `fn`
// reads per output element (profiler accounting; one FLOP per element).
template <typename Fn>
Tensor ElementwiseInto(int64_t rows, int64_t cols, int64_t n, int64_t reads_per_elem,
                       const Fn& fn) {
  Tensor c = WsTensorUninit(rows, cols);
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, n, kMinParallelWork, [&](int64_t lo, int64_t hi) {
    const int64_t m = hi - lo;
    TimedKernelScope scope(ProfKernel::kElementwise, reads_per_elem * m * kProfF,
                           m * kProfF, m, prof);
    fn(c.data(), lo, hi);
  });
  return c;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  FLEX_CHECK(a.SameShape(b));
  const float* pa = a.data();
  const float* pb = b.data();
  return ElementwiseInto(a.rows(), a.cols(), a.numel(), /*reads_per_elem=*/2,
                         [&](float* out, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = pa[i] + pb[i];
    }
  });
}

void AddInPlace(Tensor& dst, const Tensor& src) {
  FLEX_CHECK(dst.SameShape(src));
  const int64_t n = dst.numel();
  float* pd = dst.data();
  const float* ps = src.data();
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, n, kMinParallelWork, [&](int64_t lo, int64_t hi) {
    const int64_t m = hi - lo;
    // dst is read-modify-write: counted on both sides.
    TimedKernelScope scope(ProfKernel::kElementwise, 2 * m * kProfF, m * kProfF, m, prof);
    for (int64_t i = lo; i < hi; ++i) {
      pd[i] += ps[i];
    }
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  FLEX_CHECK(a.SameShape(b));
  const float* pa = a.data();
  const float* pb = b.data();
  return ElementwiseInto(a.rows(), a.cols(), a.numel(), /*reads_per_elem=*/2,
                         [&](float* out, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = pa[i] - pb[i];
    }
  });
}

Tensor Hadamard(const Tensor& a, const Tensor& b) {
  FLEX_CHECK(a.SameShape(b));
  const float* pa = a.data();
  const float* pb = b.data();
  return ElementwiseInto(a.rows(), a.cols(), a.numel(), /*reads_per_elem=*/2,
                         [&](float* out, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = pa[i] * pb[i];
    }
  });
}

Tensor Scale(const Tensor& a, float s) {
  const float* pa = a.data();
  return ElementwiseInto(a.rows(), a.cols(), a.numel(), /*reads_per_elem=*/1,
                         [&](float* out, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = pa[i] * s;
    }
  });
}

void ScaleInPlace(Tensor& t, float s) {
  const int64_t n = t.numel();
  float* p = t.data();
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, n, kMinParallelWork, [&](int64_t lo, int64_t hi) {
    const int64_t m = hi - lo;
    TimedKernelScope scope(ProfKernel::kElementwise, m * kProfF, m * kProfF, m, prof);
    for (int64_t i = lo; i < hi; ++i) {
      p[i] *= s;
    }
  });
}

Tensor AddRowVector(const Tensor& a, const Tensor& bias) {
  FLEX_CHECK_EQ(bias.rows(), 1);
  FLEX_CHECK_EQ(bias.cols(), a.cols());
  Tensor c = WsTensorUninit(a.rows(), a.cols());
  const float* brow = bias.Row(0);
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, a.rows(), RowGrain(a.cols()), [&](int64_t row_lo, int64_t row_hi) {
    const int64_t m = (row_hi - row_lo) * a.cols();
    // The broadcast bias row counts once per element it produces.
    TimedKernelScope scope(ProfKernel::kElementwise, 2 * m * kProfF, m * kProfF, m, prof);
    for (int64_t i = row_lo; i < row_hi; ++i) {
      const float* arow = a.Row(i);
      float* crow = c.Row(i);
      for (int64_t j = 0; j < a.cols(); ++j) {
        crow[j] = arow[j] + brow[j];
      }
    }
  });
  return c;
}

Tensor ColSum(const Tensor& a) {
  // Sequential: the row-ascending accumulation order per column is part of
  // the bitwise contract (this feeds bias gradients).
  Tensor c = WsTensor(1, a.cols());
  // One call per op, always sequential — the accumulator row counts once on
  // the write side (the segment_reduce convention).
  TimedKernelScope scope(ProfKernel::kElementwise, a.numel() * kProfF,
                         a.cols() * kProfF, a.numel(),
                         simd::KernelProfilingEnabled());
  float* crow = c.Row(0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    for (int64_t j = 0; j < a.cols(); ++j) {
      crow[j] += arow[j];
    }
  }
  return c;
}

Tensor Relu(const Tensor& a) {
  const float* pa = a.data();
  return ElementwiseInto(a.rows(), a.cols(), a.numel(), /*reads_per_elem=*/1,
                         [&](float* out, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
    }
  });
}

Tensor ReluBackward(const Tensor& grad_out, const Tensor& forward_out) {
  FLEX_CHECK(grad_out.SameShape(forward_out));
  const float* pg = grad_out.data();
  const float* pf = forward_out.data();
  return ElementwiseInto(grad_out.rows(), grad_out.cols(), grad_out.numel(),
                         /*reads_per_elem=*/2, [&](float* out, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[i] = pf[i] > 0.0f ? pg[i] : 0.0f;
    }
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  FLEX_CHECK_EQ(a.rows(), b.rows());
  Tensor c = WsTensorUninit(a.rows(), a.cols() + b.cols());
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, a.rows(), RowGrain(a.cols() + b.cols()),
                    [&](int64_t row_lo, int64_t row_hi) {
    const int64_t m = (row_hi - row_lo) * (a.cols() + b.cols());
    TimedKernelScope scope(ProfKernel::kRowCopy, m * kProfF, m * kProfF, 0, prof);
    for (int64_t i = row_lo; i < row_hi; ++i) {
      std::memcpy(c.Row(i), a.Row(i), static_cast<std::size_t>(a.cols()) * sizeof(float));
      std::memcpy(c.Row(i) + a.cols(), b.Row(i),
                  static_cast<std::size_t>(b.cols()) * sizeof(float));
    }
  });
  return c;
}

Tensor SliceCols(const Tensor& a, int64_t begin, int64_t end) {
  FLEX_CHECK_LE(begin, end);
  FLEX_CHECK_LE(end, a.cols());
  Tensor c = WsTensorUninit(a.rows(), end - begin);
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, a.rows(), RowGrain(end - begin), [&](int64_t row_lo, int64_t row_hi) {
    const int64_t m = (row_hi - row_lo) * (end - begin);
    TimedKernelScope scope(ProfKernel::kRowCopy, m * kProfF, m * kProfF, 0, prof);
    for (int64_t i = row_lo; i < row_hi; ++i) {
      std::memcpy(c.Row(i), a.Row(i) + begin,
                  static_cast<std::size_t>(end - begin) * sizeof(float));
    }
  });
  return c;
}

Tensor Transpose(const Tensor& a) {
  Tensor c = WsTensorUninit(a.cols(), a.rows());
  TimedKernelScope scope(ProfKernel::kRowCopy, a.numel() * kProfF, a.numel() * kProfF, 0,
                         simd::KernelProfilingEnabled());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    for (int64_t j = 0; j < a.cols(); ++j) {
      c.At(j, i) = arow[j];
    }
  }
  return c;
}

namespace {

// Dense reshape-reduce: [n·g, d] viewed as [n, g, d], reduced over g via the
// dispatched vector kernel. Output-row parallel; each output row reduces its
// own g-ascending group, the sequential order.
Tensor GroupReduceRows(const Tensor& t, int64_t group, simd::Reduce kind) {
  FLEX_CHECK_GT(group, 0);
  FLEX_CHECK_EQ(t.rows() % group, 0);
  const int64_t n = t.rows() / group;
  const int64_t d = t.cols();
  const bool zeroed = kind == simd::Reduce::kSum || kind == simd::Reduce::kMean;
  Tensor out = zeroed ? WsTensor(n, d) : WsTensorUninit(n, d);
  const simd::KernelTable& kt = simd::Kernels();
  exec::ParallelFor(0, n, RowGrain(d * group), [&](int64_t row_lo, int64_t row_hi) {
    kt.group_reduce(t.data(), d, group, kind, row_lo, row_hi, out.data());
  });
  return out;
}

}  // namespace

Tensor GroupSumRows(const Tensor& t, int64_t group) {
  return GroupReduceRows(t, group, simd::Reduce::kSum);
}

Tensor GroupMeanRows(const Tensor& t, int64_t group) {
  return GroupReduceRows(t, group, simd::Reduce::kMean);
}

Tensor GroupMaxRows(const Tensor& t, int64_t group) {
  return GroupReduceRows(t, group, simd::Reduce::kMax);
}

Tensor GroupSumRowsBackward(const Tensor& grad_out, int64_t group) {
  const int64_t n = grad_out.rows();
  const int64_t d = grad_out.cols();
  Tensor g = WsTensorUninit(n * group, d);
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, n, RowGrain(d * group), [&](int64_t row_lo, int64_t row_hi) {
    const int64_t r = row_hi - row_lo;
    // Broadcast copy: each source row is read once, written `group` times.
    TimedKernelScope scope(ProfKernel::kRowCopy, r * d * kProfF, r * group * d * kProfF, 0,
                           prof);
    for (int64_t i = row_lo; i < row_hi; ++i) {
      const float* orow = grad_out.Row(i);
      for (int64_t k = 0; k < group; ++k) {
        std::memcpy(g.Row(i * group + k), orow, static_cast<std::size_t>(d) * sizeof(float));
      }
    }
  });
  return g;
}

Tensor RowSoftmax(const Tensor& a) {
  Tensor c = WsTensorUninit(a.rows(), a.cols());
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, a.rows(), RowGrain(a.cols() * 4), [&](int64_t row_lo, int64_t row_hi) {
    const int64_t m = (row_hi - row_lo) * a.cols();
    // Nominal 5 FLOPs/element: max compare, subtract, exp (counted as one),
    // sum accumulate, scale.
    TimedKernelScope scope(ProfKernel::kRowSoftmax, m * kProfF, m * kProfF, 5 * m, prof);
    for (int64_t i = row_lo; i < row_hi; ++i) {
      const float* arow = a.Row(i);
      float* crow = c.Row(i);
      float mx = arow[0];
      for (int64_t j = 1; j < a.cols(); ++j) {
        mx = std::max(mx, arow[j]);
      }
      float sum = 0.0f;
      for (int64_t j = 0; j < a.cols(); ++j) {
        crow[j] = std::exp(arow[j] - mx);
        sum += crow[j];
      }
      const float inv = 1.0f / sum;
      for (int64_t j = 0; j < a.cols(); ++j) {
        crow[j] *= inv;
      }
    }
  });
  return c;
}

float SumAll(const Tensor& a) {
  float acc = 0.0f;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    acc += a.data()[i];
  }
  return acc;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  FLEX_CHECK(a.SameShape(b));
  float mx = 0.0f;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    mx = std::max(mx, std::fabs(a.data()[i] - b.data()[i]));
  }
  return mx;
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  return a.SameShape(b) && MaxAbsDiff(a, b) <= atol;
}

}  // namespace flexgraph
