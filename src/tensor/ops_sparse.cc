#include "src/tensor/ops_sparse.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/exec/parallel.h"
#include "src/obs/prof.h"
#include "src/tensor/workspace.h"

namespace flexgraph {
namespace {

using exec::ForEachSegmentChunk;
using exec::kMinParallelWork;

// Hand-instrumented profiler scopes for this file's non-KernelTable loops —
// same rules as ops_dense.cc: one scope per chunk on the worker thread,
// formulas linear in the chunk range (see src/obs/prof.h).
using obs::ProfKernel;
using obs::TimedKernelScope;
constexpr int64_t kProfF = static_cast<int64_t>(sizeof(float));
constexpr int64_t kProfIdx = static_cast<int64_t>(sizeof(uint32_t));

}  // namespace

const char* ReduceKindName(ReduceKind kind) {
  switch (kind) {
    case ReduceKind::kSum:
      return "sum";
    case ReduceKind::kMean:
      return "mean";
    case ReduceKind::kMax:
      return "max";
    case ReduceKind::kMin:
      return "min";
  }
  return "?";
}

simd::Reduce ToSimdReduce(ReduceKind kind) {
  switch (kind) {
    case ReduceKind::kSum:
      return simd::Reduce::kSum;
    case ReduceKind::kMean:
      return simd::Reduce::kMean;
    case ReduceKind::kMax:
      return simd::Reduce::kMax;
    case ReduceKind::kMin:
      return simd::Reduce::kMin;
  }
  return simd::Reduce::kSum;
}

Tensor Scatter(const Tensor& values, std::span<const uint32_t> index, int64_t out_rows,
               ReduceKind kind) {
  FLEX_CHECK_EQ(static_cast<int64_t>(index.size()), values.rows());
  const int64_t d = values.cols();
  // Sequential by design: the index is arbitrary, so destination rows can
  // collide across input rows. It serves the COO paths — the scatter levels
  // of SA plans and the backward of a row gather; reductions over segment
  // offsets replace it everywhere else. The per-row accumulation runs
  // through the dispatched vector kernel in ascending i order.
  Tensor out = WsTensor(out_rows, d);
  const simd::KernelTable& kt = simd::Kernels();

  if (kind == ReduceKind::kMax || kind == ReduceKind::kMin) {
    // Track which rows were touched so untouched rows stay zero rather than
    // ±infinity.
    const float init = kind == ReduceKind::kMax ? std::numeric_limits<float>::lowest()
                                                : std::numeric_limits<float>::max();
    std::vector<uint8_t> touched(static_cast<std::size_t>(out_rows), 0);
    out.Fill(init);
    for (const uint32_t dst : index) {
      FLEX_CHECK_LT(static_cast<int64_t>(dst), out_rows);
      touched[dst] = 1;
    }
    kt.scatter_rows(values.data(), d, index.data(), values.rows(), ToSimdReduce(kind),
                    out.data());
    for (int64_t r = 0; r < out_rows; ++r) {
      if (touched[static_cast<std::size_t>(r)] == 0) {
        float* orow = out.Row(r);
        std::fill(orow, orow + d, 0.0f);
      }
    }
    return out;
  }

  for (const uint32_t dst : index) {
    FLEX_CHECK_LT(static_cast<int64_t>(dst), out_rows);
  }
  kt.scatter_rows(values.data(), d, index.data(), values.rows(), simd::Reduce::kSum, out.data());
  if (kind == ReduceKind::kMean) {
    const std::vector<uint32_t> counts = ScatterCounts(index, out_rows);
    for (int64_t r = 0; r < out_rows; ++r) {
      const uint32_t c = counts[static_cast<std::size_t>(r)];
      if (c > 1) {
        float* orow = out.Row(r);
        const float inv = 1.0f / static_cast<float>(c);
        for (int64_t j = 0; j < d; ++j) {
          orow[j] *= inv;
        }
      }
    }
  }
  return out;
}

std::vector<uint32_t> ScatterCounts(std::span<const uint32_t> index, int64_t out_rows) {
  std::vector<uint32_t> counts(static_cast<std::size_t>(out_rows), 0);
  for (uint32_t dst : index) {
    FLEX_CHECK_LT(static_cast<int64_t>(dst), out_rows);
    ++counts[dst];
  }
  return counts;
}

Tensor GatherRows(const Tensor& src, std::span<const uint32_t> index) {
  const int64_t d = src.cols();
  const auto rows = static_cast<int64_t>(index.size());
  Tensor out = WsTensorUninit(rows, d);
  const int64_t grain = std::max<int64_t>(1, kMinParallelWork / std::max<int64_t>(1, d));
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
    const int64_t r = hi - lo;
    TimedKernelScope scope(ProfKernel::kRowCopy, r * (d * kProfF + kProfIdx),
                           r * d * kProfF, 0, prof);
    for (int64_t i = lo; i < hi; ++i) {
      FLEX_CHECK_LT(static_cast<int64_t>(index[static_cast<std::size_t>(i)]), src.rows());
      std::memcpy(out.Row(i), src.Row(static_cast<int64_t>(index[static_cast<std::size_t>(i)])),
                  static_cast<std::size_t>(d) * sizeof(float));
    }
  });
  return out;
}

Tensor SegmentReduce(const Tensor& values, std::span<const uint64_t> offsets, ReduceKind kind) {
  return SegmentReduce(values, offsets, kind, {});
}

Tensor SegmentReduce(const Tensor& values, std::span<const uint64_t> offsets, ReduceKind kind,
                     std::span<const int64_t> chunks) {
  FLEX_CHECK_GE(offsets.size(), 1u);
  const int64_t num_segments = static_cast<int64_t>(offsets.size()) - 1;
  FLEX_CHECK_EQ(static_cast<int64_t>(offsets[offsets.size() - 1]), values.rows());
  Tensor out = WsTensor(num_segments, values.cols());
  const simd::KernelTable& kt = simd::Kernels();
  const simd::Reduce sk = ToSimdReduce(kind);
  const int64_t d = values.cols();
  ForEachSegmentChunk(offsets, chunks, values.numel(), [&](int64_t s_lo, int64_t s_hi) {
    // ids == nullptr: contiguous rows [offsets[s], offsets[s+1]) per segment.
    kt.segment_reduce(values.data(), d, nullptr, offsets.data(), s_lo, s_hi, sk, out.data());
  });
  return out;
}

Tensor SegmentSoftmax(const Tensor& scores, std::span<const uint64_t> offsets) {
  return SegmentSoftmax(scores, offsets, {});
}

Tensor SegmentSoftmax(const Tensor& scores, std::span<const uint64_t> offsets,
                      std::span<const int64_t> chunks) {
  FLEX_CHECK_EQ(scores.cols(), 1);
  FLEX_CHECK_EQ(static_cast<int64_t>(offsets[offsets.size() - 1]), scores.rows());
  Tensor out = WsTensor(scores.rows(), 1);
  const bool prof = simd::KernelProfilingEnabled();
  ForEachSegmentChunk(offsets, chunks, scores.rows(), [&](int64_t s_lo, int64_t s_hi) {
    const int64_t m = static_cast<int64_t>(offsets[static_cast<std::size_t>(s_hi)] -
                                           offsets[static_cast<std::size_t>(s_lo)]);
    TimedKernelScope scope(ProfKernel::kRowSoftmax, m * kProfF, m * kProfF, 5 * m, prof);
    for (int64_t s = s_lo; s < s_hi; ++s) {
      const uint64_t lo = offsets[static_cast<std::size_t>(s)];
      const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
      if (lo == hi) {
        continue;
      }
      float mx = scores.At(static_cast<int64_t>(lo), 0);
      for (uint64_t r = lo + 1; r < hi; ++r) {
        mx = std::max(mx, scores.At(static_cast<int64_t>(r), 0));
      }
      float sum = 0.0f;
      for (uint64_t r = lo; r < hi; ++r) {
        const float e = std::exp(scores.At(static_cast<int64_t>(r), 0) - mx);
        out.At(static_cast<int64_t>(r), 0) = e;
        sum += e;
      }
      const float inv = 1.0f / sum;
      for (uint64_t r = lo; r < hi; ++r) {
        out.At(static_cast<int64_t>(r), 0) *= inv;
      }
    }
  });
  return out;
}

Tensor SegmentSoftmaxBackward(const Tensor& weights, const Tensor& grad,
                              std::span<const uint64_t> offsets) {
  return SegmentSoftmaxBackward(weights, grad, offsets, {});
}

Tensor SegmentSoftmaxBackward(const Tensor& weights, const Tensor& grad,
                              std::span<const uint64_t> offsets,
                              std::span<const int64_t> chunks) {
  FLEX_CHECK(weights.SameShape(grad));
  FLEX_CHECK_EQ(weights.cols(), 1);
  Tensor out = WsTensor(weights.rows(), 1);
  const bool prof = simd::KernelProfilingEnabled();
  ForEachSegmentChunk(offsets, chunks, weights.rows(), [&](int64_t s_lo, int64_t s_hi) {
    const int64_t m = static_cast<int64_t>(offsets[static_cast<std::size_t>(s_hi)] -
                                           offsets[static_cast<std::size_t>(s_lo)]);
    // Per element: dot multiply-accumulate (2) + w*(g - dot) (2).
    TimedKernelScope scope(ProfKernel::kElementwise, 2 * m * kProfF, m * kProfF, 4 * m,
                           prof);
    for (int64_t s = s_lo; s < s_hi; ++s) {
      const uint64_t lo = offsets[static_cast<std::size_t>(s)];
      const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
      // An FMA chain from +0, spelled out (see RowDot in autograd.cc).
      float dot = 0.0f;
      for (uint64_t r = lo; r < hi; ++r) {
        dot = std::fma(weights.At(static_cast<int64_t>(r), 0),
                       grad.At(static_cast<int64_t>(r), 0), dot);
      }
      for (uint64_t r = lo; r < hi; ++r) {
        const float w = weights.At(static_cast<int64_t>(r), 0);
        out.At(static_cast<int64_t>(r), 0) = w * (grad.At(static_cast<int64_t>(r), 0) - dot);
      }
    }
  });
  return out;
}

Tensor MulRowScalar(const Tensor& values, const Tensor& weights) {
  FLEX_CHECK_EQ(weights.cols(), 1);
  FLEX_CHECK_EQ(weights.rows(), values.rows());
  const int64_t d = values.cols();
  Tensor out = WsTensorUninit(values.rows(), d);
  const int64_t grain = std::max<int64_t>(1, kMinParallelWork / std::max<int64_t>(1, d));
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, values.rows(), grain, [&](int64_t lo, int64_t hi) {
    const int64_t r = hi - lo;
    TimedKernelScope scope(ProfKernel::kElementwise, r * (d + 1) * kProfF,
                           r * d * kProfF, r * d, prof);
    for (int64_t i = lo; i < hi; ++i) {
      const float w = weights.At(i, 0);
      const float* vrow = values.Row(i);
      float* orow = out.Row(i);
      for (int64_t j = 0; j < d; ++j) {
        orow[j] = w * vrow[j];
      }
    }
  });
  return out;
}

Tensor SpmmCsr(int64_t num_rows, std::span<const uint64_t> offsets,
               std::span<const uint32_t> col_idx, const Tensor& x) {
  FLEX_CHECK_EQ(static_cast<int64_t>(offsets.size()), num_rows + 1);
  const int64_t d = x.cols();
  Tensor out = WsTensor(num_rows, d);
  // A CSR row is a segment of gathered x rows: run the fused gather-reduce
  // kernel (with its leaf-row prefetch) per contiguous row range. Parallel
  // over rows keeps the per-row edge order — and the float sums — unchanged.
  const simd::KernelTable& kt = simd::Kernels();
  const int64_t grain = std::max<int64_t>(1, kMinParallelWork / std::max<int64_t>(1, d * 8));
  exec::ParallelFor(0, num_rows, grain, [&](int64_t row_lo, int64_t row_hi) {
    kt.segment_reduce(x.data(), d, col_idx.data(), offsets.data(), row_lo, row_hi,
                      simd::Reduce::kSum, out.data());
  });
  return out;
}

}  // namespace flexgraph
