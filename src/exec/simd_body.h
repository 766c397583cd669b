// Shared kernel bodies for the SIMD dispatch layer. Each variant TU
// (simd_scalar.cc, simd_sse2.cc, simd_avx2.cc, simd_avx512.cc) defines a
// vector policy V — register type, lane count, load/store/add/mul/fma/max/
// min/broadcast, a masked add for the zero skip, and an in-register
// transpose of kWidth registers — includes this header, and exports
// MakeTable<V>().
//
// Every lane holds one output element. The bodies vectorize along the
// feature (j) dimension and finish with a scalar tail — except the narrow
// GemmTransA (n below the lane count), which vectorizes along a's columns,
// one lane per row of c, and the instance scores and score-gradient dots,
// one lane per instance. Either way each output element's accumulation
// order over edges / rows / k is identical at every lane width: results are
// bitwise identical across scalar, 128-bit, 256-bit, and 512-bit variants.
// Variant TUs compile with -ffp-contract=off so the scalar tails (and the
// scalar policy) never fuse the multiply-add pairs the vector paths keep
// separate; V::Fma, used only where the float contract spells std::fma,
// rounds once at every width, as std::fma does.
//
// Comparison semantics are pinned to maxps/minps: max(acc, src) returns acc
// when acc > src and src otherwise (so src wins on NaN and ±0 ties), and the
// scalar policy + tails spell out the same ternary.
#ifndef SRC_EXEC_SIMD_BODY_H_
#define SRC_EXEC_SIMD_BODY_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/exec/simd.h"

namespace flexgraph {
namespace simd {
namespace detail {

template <typename V>
struct Body {
  using Reg = typename V::Reg;
  static constexpr int64_t kW = V::kWidth;

  // ---- Row primitives ----

  static void AddRow(float* dst, const float* src, int64_t d) {
    int64_t j = 0;
    for (; j + kW <= d; j += kW) {
      V::Store(dst + j, V::Add(V::Load(dst + j), V::Load(src + j)));
    }
    for (; j < d; ++j) {
      dst[j] = dst[j] + src[j];
    }
  }

  static void MaxRow(float* dst, const float* src, int64_t d) {
    int64_t j = 0;
    for (; j + kW <= d; j += kW) {
      V::Store(dst + j, V::Max(V::Load(dst + j), V::Load(src + j)));
    }
    for (; j < d; ++j) {
      dst[j] = dst[j] > src[j] ? dst[j] : src[j];
    }
  }

  static void MinRow(float* dst, const float* src, int64_t d) {
    int64_t j = 0;
    for (; j + kW <= d; j += kW) {
      V::Store(dst + j, V::Min(V::Load(dst + j), V::Load(src + j)));
    }
    for (; j < d; ++j) {
      dst[j] = dst[j] < src[j] ? dst[j] : src[j];
    }
  }

  static void ScaleRow(float* dst, float s, int64_t d) {
    const Reg sv = V::Broadcast(s);
    int64_t j = 0;
    for (; j + kW <= d; j += kW) {
      V::Store(dst + j, V::Mul(V::Load(dst + j), sv));
    }
    for (; j < d; ++j) {
      dst[j] = dst[j] * s;
    }
  }

  static void AxpyRow(float* dst, const float* src, float a, int64_t d) {
    const Reg av = V::Broadcast(a);
    int64_t j = 0;
    for (; j + kW <= d; j += kW) {
      V::Store(dst + j, V::Add(V::Load(dst + j), V::Mul(av, V::Load(src + j))));
    }
    for (; j < d; ++j) {
      const float p = a * src[j];
      dst[j] = dst[j] + p;
    }
  }

  // ---- Fused gather-reduce / segment reduce ----

  static void SegmentReduce(const float* x, int64_t d, const uint32_t* ids,
                            const uint64_t* offsets, int64_t s_lo, int64_t s_hi, Reduce kind,
                            float* out) {
    // Prefetch horizon: the last leaf ref this chunk will touch. Leaf refs
    // are consumed in ascending global order, so prefetching ids[e + P] is
    // always within the chunk's own working set.
    const uint64_t chunk_end = offsets[static_cast<std::size_t>(s_hi)];
    constexpr uint64_t kPf = static_cast<uint64_t>(kPrefetchLeafRows);
    for (int64_t s = s_lo; s < s_hi; ++s) {
      const uint64_t lo = offsets[static_cast<std::size_t>(s)];
      const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
      if (lo == hi) {
        continue;  // empty segment: stays zero (sum) / zero-filled (max)
      }
      float* dst = out + s * d;
      const auto row = [&](uint64_t e) {
        return x + static_cast<int64_t>(ids == nullptr ? e : ids[e]) * d;
      };
      if (kind == Reduce::kMax || kind == Reduce::kMin) {
        std::memcpy(dst, row(lo), static_cast<std::size_t>(d) * sizeof(float));
        for (uint64_t e = lo + 1; e < hi; ++e) {
          if (ids != nullptr && e + kPf < chunk_end) {
            __builtin_prefetch(x + static_cast<int64_t>(ids[e + kPf]) * d);
          }
          if (kind == Reduce::kMax) {
            MaxRow(dst, row(e), d);
          } else {
            MinRow(dst, row(e), d);
          }
        }
        continue;
      }
      for (uint64_t e = lo; e < hi; ++e) {
        if (ids != nullptr && e + kPf < chunk_end) {
          __builtin_prefetch(x + static_cast<int64_t>(ids[e + kPf]) * d);
        }
        AddRow(dst, row(e), d);
      }
      if (kind == Reduce::kMean) {
        ScaleRow(dst, 1.0f / static_cast<float>(hi - lo), d);
      }
    }
  }

  // ---- Extended-id gather-reduce (fused bottom level) ----

  static void SegmentReduceExt(const float* x, int64_t base_rows, const float* partials,
                               int64_t d, const uint32_t* ids, const uint64_t* offsets,
                               const uint64_t* scale_offsets, int64_t s_lo, int64_t s_hi,
                               Reduce kind, float* out) {
    const uint64_t chunk_end = offsets[static_cast<std::size_t>(s_hi)];
    constexpr uint64_t kPf = static_cast<uint64_t>(kPrefetchLeafRows);
    const auto row = [&](uint64_t e) {
      const int64_t id = static_cast<int64_t>(ids[e]);
      return id < base_rows ? x + id * d : partials + (id - base_rows) * d;
    };
    for (int64_t s = s_lo; s < s_hi; ++s) {
      const uint64_t lo = offsets[static_cast<std::size_t>(s)];
      const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
      if (lo == hi) {
        continue;  // empty segment: stays zero (sum) / zero-filled (max)
      }
      float* dst = out + s * d;
      if (kind == Reduce::kMax || kind == Reduce::kMin) {
        std::memcpy(dst, row(lo), static_cast<std::size_t>(d) * sizeof(float));
        for (uint64_t e = lo + 1; e < hi; ++e) {
          if (e + kPf < chunk_end) {
            __builtin_prefetch(row(e + kPf));
          }
          if (kind == Reduce::kMax) {
            MaxRow(dst, row(e), d);
          } else {
            MinRow(dst, row(e), d);
          }
        }
        continue;
      }
      for (uint64_t e = lo; e < hi; ++e) {
        if (e + kPf < chunk_end) {
          __builtin_prefetch(row(e + kPf));
        }
        AddRow(dst, row(e), d);
      }
      if (kind == Reduce::kMean) {
        const uint64_t width =
            scale_offsets != nullptr
                ? scale_offsets[static_cast<std::size_t>(s) + 1] -
                      scale_offsets[static_cast<std::size_t>(s)]
                : hi - lo;
        ScaleRow(dst, 1.0f / static_cast<float>(width), d);
      }
    }
  }

  // ---- MAGNN instance attention (recomputed, never stored) ----

  static const float* LeafRow(const float* x, int64_t d, const uint32_t* ids, uint64_t e) {
    return x + static_cast<int64_t>(ids[e]) * d;
  }

  // Prefetches the first line of each member row of instance i.
  static void PrefetchInstance(const float* x, int64_t d, const uint32_t* ids,
                               const uint64_t* leaf_offsets, uint64_t i, int64_t k0) {
    for (uint64_t e = leaf_offsets[i]; e < leaf_offsets[i + 1]; ++e) {
      __builtin_prefetch(LeafRow(x, d, ids, e) + k0);
    }
  }

  // Means of the prefix run [r0, r1) into rows 0 .. r1-r0: per element
  // segment_reduce's kMean fold, ((+0 + x_0) + x_1 + …) × 1/w over the
  // member rows in leaf order. Row 0 first holds the partial of the run's
  // shared first w − 1 rows; each instance adds its own last row to it,
  // instance r0 last and in place — the same float ops in the same order.
  // Width 0 (always a run of one) leaves zeros.
  static void RunMeans(const float* x, int64_t d, const uint32_t* ids,
                       const uint64_t* leaf_offsets, uint64_t r0, uint64_t r1, float* rows) {
    const uint64_t e0 = leaf_offsets[r0];
    const uint64_t width = leaf_offsets[r0 + 1] - e0;
    std::fill(rows, rows + d, 0.0f);
    if (width == 0) {
      return;
    }
    for (uint64_t e = e0; e + 1 < e0 + width; ++e) {
      AddRow(rows, LeafRow(x, d, ids, e), d);
    }
    const float inv = 1.0f / static_cast<float>(width);
    const auto mean = [&](uint64_t i, float* out) {
      const float* last = LeafRow(x, d, ids, leaf_offsets[i + 1] - 1);
      int64_t j = 0;
      for (; j + kW <= d; j += kW) {
        const Reg sum = V::Add(V::Load(rows + j), V::Load(last + j));
        V::Store(out + j, V::Mul(sum, V::Broadcast(inv)));
      }
      for (; j < d; ++j) {
        out[j] = (rows[j] + last[j]) * inv;
      }
    };
    for (uint64_t i = r0 + 1; i < r1; ++i) {
      mean(i, rows + static_cast<int64_t>(i - r0) * d);
    }
    mean(r0, rows);
  }

  // Means of one slot's instances [lo, hi) into tile rows 0 .. hi-lo, run
  // by prefix run; runs are found inside the slot only, so what a task
  // reads does not follow where the chunks cut. Prefetches the member
  // rows of the instance kPrefetchLeafRows ahead, up to the task's last
  // instance i_end.
  static void FormMeans(const float* x, int64_t d, const uint32_t* ids,
                        const uint64_t* leaf_offsets, uint64_t lo, uint64_t hi, uint64_t i_end,
                        float* tile) {
    constexpr uint64_t kPf = static_cast<uint64_t>(kPrefetchLeafRows);
    uint64_t r1 = lo;
    for (uint64_t r0 = lo; r0 < hi; r0 = r1) {
      const uint64_t width = leaf_offsets[r0 + 1] - leaf_offsets[r0];
      r1 = r0 + 1;
      while (r1 < hi && ContinuesPrefixRun(ids, leaf_offsets[r1],
                                           leaf_offsets[r1 + 1] - leaf_offsets[r1], width)) {
        ++r1;
      }
      for (uint64_t i = r0; i < r1 && i + kPf < i_end; ++i) {
        PrefetchInstance(x, d, ids, leaf_offsets, i + kPf, 0);
      }
      RunMeans(x, d, ids, leaf_offsets, r0, r1, tile + static_cast<int64_t>(r0 - lo) * d);
    }
  }

  // out[l] = the k-ascending chain Σ_k m_l[k]·v[k] from +0 for tile rows
  // l < n, lane-parallel: lane l of the accumulator runs instance l0 + l's
  // chain. Each group of kW rows is loaded kW columns at a time and
  // transposed in registers, so register q holds column k + q of the
  // group; a short last group repeats row n - 1 in its spare lanes, whose
  // results are dropped. The d % kW trailing columns continue each lane's
  // chain in scalar code. kFused picks the step: multiply, then add
  // (gemm's n = 1 chain) or one FMA (RowDot's).
  template <bool kFused>
  static void TransposedDots(const float* tile, int64_t n, int64_t d, const float* v,
                             float* out) {
    const int64_t d_vec = d / kW * kW;
    for (int64_t l0 = 0; l0 < n; l0 += kW) {
      Reg acc = V::Zero();
      for (int64_t k = 0; k < d_vec; k += kW) {
        Reg r[static_cast<std::size_t>(kW)];
        Unroll<kW>([&]<int64_t q>() {
          r[q] = V::Load(tile + std::min(l0 + q, n - 1) * d + k);
        });
        V::Transpose(r);
        Unroll<kW>([&]<int64_t q>() {
          const Reg b = V::Broadcast(v[k + q]);
          acc = kFused ? V::Fma(r[q], b, acc) : V::Add(acc, V::Mul(r[q], b));
        });
      }
      float lanes[static_cast<std::size_t>(kW)];
      V::Store(lanes, acc);
      for (int64_t l = l0; l < std::min(l0 + kW, n); ++l) {
        float a = lanes[l - l0];
        const float* m = tile + l * d;
        for (int64_t k = d_vec; k < d; ++k) {
          if constexpr (kFused) {
            a = std::fma(m[k], v[k], a);
          } else {
            const float p = m[k] * v[k];
            a = a + p;
          }
        }
        out[l] = a;
      }
    }
  }

  // In place, scores → α over one slot: SegmentSoftmax's max fold seeded
  // with the first score, exp(s − max), a +0-seeded sum, then e × (1/sum).
  static void SlotSoftmax(float* a, int64_t n) {
    float mx = a[0];
    for (int64_t l = 1; l < n; ++l) {
      mx = std::max(mx, a[l]);
    }
    float sum = 0.0f;
    for (int64_t l = 0; l < n; ++l) {
      const float e = std::exp(a[l] - mx);
      a[l] = e;
      sum += e;
    }
    const float inv = 1.0f / sum;
    for (int64_t l = 0; l < n; ++l) {
      a[l] *= inv;
    }
  }

  // out = the +0-seeded Σ_l alpha[l]·m_l in row order (AxpyRow's
  // multiply-then-add per element), accumulated in registers.
  static void SlotWeightedSum(const float* tile, int64_t n, int64_t d, const float* alpha,
                              float* out) {
    int64_t j = 0;
    for (; j + kW <= d; j += kW) {
      Reg acc = V::Zero();
      for (int64_t l = 0; l < n; ++l) {
        acc = V::Add(acc, V::Mul(V::Broadcast(alpha[l]), V::Load(tile + l * d + j)));
      }
      V::Store(out + j, acc);
    }
    for (; j < d; ++j) {
      float acc = 0.0f;
      for (int64_t l = 0; l < n; ++l) {
        const float p = alpha[l] * tile[l * d + j];
        acc = acc + p;
      }
      out[j] = acc;
    }
  }

  static void InstanceAttention(const float* x, int64_t d, const uint32_t* ids,
                                const uint64_t* leaf_offsets, const uint64_t* slot_offsets,
                                const float* w, float bias, int64_t s_lo, int64_t s_hi,
                                float* tile, float* alpha, float* out) {
    const uint64_t i_end = slot_offsets[static_cast<std::size_t>(s_hi)];
    for (int64_t s = s_lo; s < s_hi; ++s) {
      const uint64_t lo = slot_offsets[static_cast<std::size_t>(s)];
      const uint64_t hi = slot_offsets[static_cast<std::size_t>(s) + 1];
      float* dst = out + s * d;
      if (lo == hi) {
        std::fill(dst, dst + d, 0.0f);
        continue;
      }
      const auto n = static_cast<int64_t>(hi - lo);
      FormMeans(x, d, ids, leaf_offsets, lo, hi, i_end, tile);
      // The scores: gemm's n = 1 chain, then AddRowVector's bias.
      float* a = alpha + lo;
      TransposedDots<false>(tile, n, d, w, a);
      for (int64_t l = 0; l < n; ++l) {
        a[l] = a[l] + bias;
      }
      SlotSoftmax(a, n);
      SlotWeightedSum(tile, n, d, a, dst);
    }
  }

  static void InstanceAttentionGrad(const float* x, int64_t d, const uint32_t* ids,
                                    const uint64_t* leaf_offsets, const uint64_t* slot_offsets,
                                    const float* alpha, const float* grad_slots, int64_t s_lo,
                                    int64_t s_hi, float* tile, float* dscore) {
    const uint64_t i_end = slot_offsets[static_cast<std::size_t>(s_hi)];
    for (int64_t s = s_lo; s < s_hi; ++s) {
      const uint64_t lo = slot_offsets[static_cast<std::size_t>(s)];
      const uint64_t hi = slot_offsets[static_cast<std::size_t>(s) + 1];
      if (lo == hi) {
        continue;
      }
      const auto n = static_cast<int64_t>(hi - lo);
      FormMeans(x, d, ids, leaf_offsets, lo, hi, i_end, tile);
      float* ds = dscore + lo;  // gα (RowDot's FMA chain) first, then dscore
      TransposedDots<true>(tile, n, d, grad_slots + s * d, ds);
      const float* a = alpha + lo;
      float dot = 0.0f;
      for (int64_t l = 0; l < n; ++l) {
        dot = std::fma(a[l], ds[l], dot);
      }
      for (int64_t l = 0; l < n; ++l) {
        ds[l] = a[l] * (ds[l] - dot);
      }
    }
  }

  // Each column block sweeps every instance in ascending i and keeps the
  // prefix partial of the current run in registers, so a run — which here
  // may cross a slot boundary — gathers its shared rows once per block.
  // A width-0 instance has m_i = 0, which the zero skip drops from every
  // column; it is passed over.
  static void InstanceAttentionDw(const float* x, int64_t d, const uint32_t* ids,
                                  const uint64_t* leaf_offsets, int64_t num_instances,
                                  const float* dscore, int64_t k_lo, int64_t k_hi, float* dw) {
    constexpr int64_t kBlock = kPackAlignFloats;
    constexpr int64_t kNv = kBlock / kW;
    constexpr uint64_t kPf = static_cast<uint64_t>(kPrefetchLeafRows);
    const auto n = static_cast<uint64_t>(num_instances);
    int64_t k0 = k_lo;
    // Whole 16-column blocks: the block's columns of the prefix partial,
    // of m_i and of dw in registers, the zero skip a per-lane mask, as in
    // gemm_trans_a.
    for (; k0 + kBlock <= k_hi; k0 += kBlock) {
      Reg acc[static_cast<std::size_t>(kNv)];
      Reg p[static_cast<std::size_t>(kNv)];
      Unroll<kNv>([&]<int64_t v>() {
        acc[v] = V::Zero();
        p[v] = V::Zero();
      });
      uint64_t e0 = leaf_offsets[0];
      uint64_t prev_width = 0;
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t e1 = leaf_offsets[i + 1];
        const uint64_t width = e1 - e0;
        if (width != 0) {
          if (i + kPf < n) {
            PrefetchInstance(x, d, ids, leaf_offsets, i + kPf, k0);
          }
          if (!ContinuesPrefixRun(ids, e0, width, prev_width)) {
            Unroll<kNv>([&]<int64_t v>() { p[v] = V::Zero(); });
            for (uint64_t e = e0; e + 1 < e1; ++e) {
              const float* row = LeafRow(x, d, ids, e) + k0;
              Unroll<kNv>([&]<int64_t v>() { p[v] = V::Add(p[v], V::Load(row + v * kW)); });
            }
          }
          const float* last = LeafRow(x, d, ids, e1 - 1) + k0;
          const Reg inv = V::Broadcast(1.0f / static_cast<float>(width));
          const Reg ds = V::Broadcast(dscore[i]);
          Unroll<kNv>([&]<int64_t v>() {
            const Reg m = V::Mul(V::Add(p[v], V::Load(last + v * kW)), inv);
            acc[v] = V::AddWhereNonzero(acc[v], m, V::Mul(m, ds));
          });
        }
        prev_width = width;
        e0 = e1;
      }
      Unroll<kNv>([&]<int64_t v>() { V::Store(dw + k0 + v * kW, acc[v]); });
    }
    // A narrower last block: one scalar chain per column.
    for (int64_t k = k0; k < k_hi; ++k) {
      float acc = 0.0f;
      float p = 0.0f;
      uint64_t e0 = leaf_offsets[0];
      uint64_t prev_width = 0;
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t e1 = leaf_offsets[i + 1];
        const uint64_t width = e1 - e0;
        if (width != 0) {
          if (!ContinuesPrefixRun(ids, e0, width, prev_width)) {
            p = 0.0f;
            for (uint64_t e = e0; e + 1 < e1; ++e) {
              p = p + LeafRow(x, d, ids, e)[k];
            }
          }
          const float m = (p + LeafRow(x, d, ids, e1 - 1)[k]) * (1.0f / static_cast<float>(width));
          if (m != 0.0f) {
            const float prod = m * dscore[i];
            acc = acc + prod;
          }
        }
        prev_width = width;
        e0 = e1;
      }
      dw[k] = acc;
    }
  }

  static void InstanceAttentionInputGrad(const float* grad_slots, int64_t d,
                                         const uint32_t* slot_of, const float* alpha,
                                         const float* dscore, const float* w,
                                         const uint64_t* src_offsets,
                                         const uint32_t* src_segments,
                                         const uint64_t* seg_offsets, int64_t v_lo,
                                         int64_t v_hi, float* gx) {
    const uint64_t chunk_end = src_offsets[static_cast<std::size_t>(v_hi)];
    constexpr uint64_t kPf = static_cast<uint64_t>(kPrefetchLeafRows);
    const auto slot_row = [&](uint64_t idx) {
      return grad_slots + static_cast<int64_t>(slot_of[src_segments[idx]]) * d;
    };
    for (int64_t v = v_lo; v < v_hi; ++v) {
      float* dst = gx + v * d;
      for (uint64_t idx = src_offsets[static_cast<std::size_t>(v)];
           idx < src_offsets[static_cast<std::size_t>(v) + 1]; ++idx) {
        if (idx + kPf < chunk_end) {
          __builtin_prefetch(slot_row(idx + kPf));
        }
        const uint32_t i = src_segments[idx];
        const float* grow = slot_row(idx);
        const float a = alpha[i];
        const float ds = dscore[i];
        const float scale = 1.0f / static_cast<float>(seg_offsets[i + 1] - seg_offsets[i]);
        const Reg av = V::Broadcast(a);
        const Reg dv = V::Broadcast(ds);
        const Reg sv = V::Broadcast(scale);
        int64_t j = 0;
        for (; j + kW <= d; j += kW) {
          // g_i = α_i·G_s + (0 + dscore_i·w): the weighted sum's and the
          // k = 1 score GEMM's gradients, summed in that order.
          const Reg g =
              V::Add(V::Mul(av, V::Load(grow + j)), V::Add(V::Zero(), V::Mul(dv, V::Load(w + j))));
          V::Store(dst + j, V::Add(V::Load(dst + j), V::Mul(sv, g)));
        }
        for (; j < d; ++j) {
          const float p = ds * w[j];
          const float t = 0.0f + p;
          const float q = a * grow[j];
          const float g = q + t;
          const float r = scale * g;
          dst[j] = dst[j] + r;
        }
      }
    }
  }

  // ---- Planned bottom-level backward (source-row gather) ----

  static void IndirectBackward(const float* grad_out, int64_t d, const uint64_t* src_offsets,
                               const uint32_t* src_segments, const uint64_t* seg_offsets,
                               Reduce kind, int64_t v_lo, int64_t v_hi, float* gx) {
    const uint64_t chunk_end = src_offsets[static_cast<std::size_t>(v_hi)];
    constexpr uint64_t kPf = static_cast<uint64_t>(kPrefetchLeafRows);
    for (int64_t v = v_lo; v < v_hi; ++v) {
      float* dst = gx + v * d;
      for (uint64_t idx = src_offsets[static_cast<std::size_t>(v)];
           idx < src_offsets[static_cast<std::size_t>(v) + 1]; ++idx) {
        if (idx + kPf < chunk_end) {
          __builtin_prefetch(grad_out + static_cast<int64_t>(src_segments[idx + kPf]) * d);
        }
        const uint32_t s = src_segments[idx];
        const float* grow = grad_out + static_cast<int64_t>(s) * d;
        if (kind == Reduce::kMean) {
          const uint64_t width = seg_offsets[s + 1] - seg_offsets[s];
          AxpyRow(dst, grow, 1.0f / static_cast<float>(width), d);
        } else {
          AddRow(dst, grow, d);
        }
      }
    }
  }

  // ---- Sparse scatter accumulation ----

  static void ScatterRows(const float* values, int64_t d, const uint32_t* index, int64_t rows,
                          Reduce kind, float* out) {
    for (int64_t i = 0; i < rows; ++i) {
      float* dst = out + static_cast<int64_t>(index[i]) * d;
      const float* src = values + i * d;
      if (kind == Reduce::kMax) {
        MaxRow(dst, src, d);
      } else if (kind == Reduce::kMin) {
        MinRow(dst, src, d);
      } else {
        AddRow(dst, src, d);
      }
    }
  }

  // ---- Dense reshape-reduce (schema level) ----

  static void GroupReduce(const float* values, int64_t d, int64_t group, Reduce kind,
                          int64_t row_lo, int64_t row_hi, float* out) {
    for (int64_t i = row_lo; i < row_hi; ++i) {
      float* dst = out + i * d;
      const float* first = values + i * group * d;
      if (kind == Reduce::kMax || kind == Reduce::kMin) {
        std::memcpy(dst, first, static_cast<std::size_t>(d) * sizeof(float));
        for (int64_t g = 1; g < group; ++g) {
          if (kind == Reduce::kMax) {
            MaxRow(dst, first + g * d, d);
          } else {
            MinRow(dst, first + g * d, d);
          }
        }
        continue;
      }
      for (int64_t g = 0; g < group; ++g) {
        AddRow(dst, first + g * d, d);
      }
      if (kind == Reduce::kMean) {
        ScaleRow(dst, 1.0f / static_cast<float>(group), d);
      }
    }
  }

  // ---- Packed GEMM ----

  static void GemmPackB(const float* b, int64_t k, int64_t n, bool transpose, float* packed) {
    const int64_t stride = PackedStride(n);
    if (!transpose) {
      for (int64_t kk = 0; kk < k; ++kk) {
        float* prow = packed + kk * stride;
        std::memcpy(prow, b + kk * n, static_cast<std::size_t>(n) * sizeof(float));
        for (int64_t j = n; j < stride; ++j) {
          prow[j] = 0.0f;
        }
      }
      return;
    }
    // b is row-major [n x k]; packed[kk][j] = b[j][kk].
    for (int64_t kk = 0; kk < k; ++kk) {
      float* prow = packed + kk * stride;
      for (int64_t j = 0; j < n; ++j) {
        prow[j] = b[j * k + kk];
      }
      for (int64_t j = n; j < stride; ++j) {
        prow[j] = 0.0f;
      }
    }
  }

  // Calls f.template operator()<r>() for r = 0 .. N-1. The register tiles
  // below index their accumulator arrays only through these template
  // constants, so the arrays scalarize into registers; a runtime
  // `for (r < MR)` loop is not unrolled at -O2 and leaves them on the stack,
  // one load and one store per accumulator per kk step.
  template <int64_t N, typename F>
  static void Unroll(const F& f) {
    [&]<int64_t... R>(std::integer_sequence<int64_t, R...>) {
      (f.template operator()<R>(), ...);
    }(std::make_integer_sequence<int64_t, N>{});
  }

  // MR-row × 2-vector register block. Accumulators live in registers for
  // the whole ascending-kk loop, so each c[i][j] sums in exactly the scalar
  // order; the padded panel makes every vector load safe while stores only
  // touch the real n columns.
  static constexpr int64_t kMr = 4;

  template <int64_t MR>
  static void GemmPanel(const float* a, int64_t lda, const float* pb, int64_t stride, int64_t k,
                        int64_t n, float* c, int64_t ldc, int64_t i) {
    int64_t j = 0;
    for (; j + 2 * kW <= n; j += 2 * kW) {
      Reg acc0[static_cast<std::size_t>(MR)];
      Reg acc1[static_cast<std::size_t>(MR)];
      Unroll<MR>([&]<int64_t r>() {
        acc0[r] = V::Zero();
        acc1[r] = V::Zero();
      });
      const float* pbj = pb + j;
      for (int64_t kk = 0; kk < k; ++kk) {
        const Reg b0 = V::Load(pbj + kk * stride);
        const Reg b1 = V::Load(pbj + kk * stride + kW);
        Unroll<MR>([&]<int64_t r>() {
          const Reg av = V::Broadcast(a[(i + r) * lda + kk]);
          acc0[r] = V::Add(acc0[r], V::Mul(av, b0));
          acc1[r] = V::Add(acc1[r], V::Mul(av, b1));
        });
      }
      Unroll<MR>([&]<int64_t r>() {
        V::Store(c + (i + r) * ldc + j, acc0[r]);
        V::Store(c + (i + r) * ldc + j + kW, acc1[r]);
      });
    }
    for (; j + kW <= n; j += kW) {
      Reg acc[static_cast<std::size_t>(MR)];
      Unroll<MR>([&]<int64_t r>() { acc[r] = V::Zero(); });
      const float* pbj = pb + j;
      for (int64_t kk = 0; kk < k; ++kk) {
        const Reg b0 = V::Load(pbj + kk * stride);
        Unroll<MR>([&]<int64_t r>() {
          acc[r] = V::Add(acc[r], V::Mul(V::Broadcast(a[(i + r) * lda + kk]), b0));
        });
      }
      Unroll<MR>([&]<int64_t r>() { V::Store(c + (i + r) * ldc + j, acc[r]); });
    }
    for (; j < n; ++j) {
      GemmTail<MR>(a, lda, pb, stride, k, c, ldc, i, j);
    }
  }

  // Scalar tail of a panel: column j of its MR rows. The MR element chains
  // run interleaved through one kk loop, so the loop is bound by add
  // throughput, not by one add's latency per step; each chain is still its
  // element's kk-ascending multiply-then-add.
  template <int64_t MR>
  static void GemmTail(const float* a, int64_t lda, const float* pb, int64_t stride, int64_t k,
                       float* c, int64_t ldc, int64_t i, int64_t j) {
    float acc[static_cast<std::size_t>(MR)];
    Unroll<MR>([&]<int64_t r>() { acc[r] = 0.0f; });
    for (int64_t kk = 0; kk < k; ++kk) {
      const float bk = pb[kk * stride + j];
      Unroll<MR>([&]<int64_t r>() {
        const float p = a[(i + r) * lda + kk] * bk;
        acc[r] = acc[r] + p;
      });
    }
    Unroll<MR>([&]<int64_t r>() { c[(i + r) * ldc + j] = acc[r]; });
  }

  static void Gemm(const float* a, int64_t lda, const float* packed_b, int64_t k, int64_t n,
                   float* c, int64_t ldc, int64_t row_lo, int64_t row_hi) {
    const int64_t stride = PackedStride(n);
    int64_t i = row_lo;
    for (; i + kMr <= row_hi; i += kMr) {
      GemmPanel<kMr>(a, lda, packed_b, stride, k, n, c, ldc, i);
    }
    for (; i < row_hi; ++i) {
      GemmPanel<1>(a, lda, packed_b, stride, k, n, c, ldc, i);
    }
  }

  // ---- A-transposed GEMM (weight gradients) ----

  // Narrow-path register tile: rows [i0, i0 + NB·kW) of c — NB vectors of
  // a's columns — in column j. Lane l of acc[q] is c[i0 + q·kW + l][j]:
  // lanes never mix, and each lane folds its own element's kk-ascending
  // multiply-then-add chain, skipping the kk where its a[kk][i] is zero (a
  // per-lane mask, so an Inf or NaN in b's row stays out of that element).
  template <int64_t NB>
  static void GemmTransATile(const float* a, int64_t k, int64_t m, const float* b, int64_t n,
                             float* c, int64_t i0, int64_t j) {
    Reg acc[static_cast<std::size_t>(NB)];
    Unroll<NB>([&]<int64_t q>() { acc[q] = V::Zero(); });
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* arow = a + kk * m + i0;
      const Reg bv = V::Broadcast(b[kk * n + j]);
      Unroll<NB>([&]<int64_t q>() {
        const Reg av = V::Load(arow + q * kW);
        acc[q] = V::AddWhereNonzero(acc[q], av, V::Mul(av, bv));
      });
    }
    // c rows are n floats apart, so the lanes leave through a stack buffer
    // (after the kk loop; n == 1 makes it a contiguous copy).
    float lanes[static_cast<std::size_t>(kW)];
    Unroll<NB>([&]<int64_t q>() {
      V::Store(lanes, acc[q]);
      for (int64_t l = 0; l < kW; ++l) {
        c[(i0 + q * kW + l) * n + j] = lanes[l];
      }
    });
  }

  // Wide-path register tile: rows [i, i + MR) × columns [j, j + NV·kW) of c
  // over the k-block [k0, k1). The accumulators start at +0 in the first
  // block and reload what the previous block stored otherwise, so every
  // element folds the same kk-ascending chain whatever the block size; one
  // broadcast a[kk][i + r] masks its whole row of lanes for the zero skip.
  template <int64_t MR, int64_t NV>
  static void GemmTransAWideTile(const float* a, int64_t m, const float* b, int64_t n,
                                 float* c, int64_t i, int64_t j, int64_t k0, int64_t k1) {
    Reg acc[static_cast<std::size_t>(MR)][static_cast<std::size_t>(NV)];
    Unroll<MR>([&]<int64_t r>() {
      Unroll<NV>([&]<int64_t v>() {
        acc[r][v] = k0 == 0 ? V::Zero() : V::Load(c + (i + r) * n + j + v * kW);
      });
    });
    for (int64_t kk = k0; kk < k1; ++kk) {
      const float* arow = a + kk * m + i;
      const float* brow = b + kk * n + j;
      Reg bv[static_cast<std::size_t>(NV)];
      Unroll<NV>([&]<int64_t v>() { bv[v] = V::Load(brow + v * kW); });
      Unroll<MR>([&]<int64_t r>() {
        const Reg av = V::Broadcast(arow[r]);
        Unroll<NV>([&]<int64_t v>() {
          acc[r][v] = V::AddWhereNonzero(acc[r][v], av, V::Mul(av, bv[v]));
        });
      });
    }
    Unroll<MR>([&]<int64_t r>() {
      Unroll<NV>([&]<int64_t v>() { V::Store(c + (i + r) * n + j + v * kW, acc[r][v]); });
    });
  }

  // Rows [i, i + MR) of c over the k-block [k0, k1): register tiles for the
  // whole vectors of each row, one scalar chain per element (from the value
  // the previous block stored) for the n % kW columns after them.
  template <int64_t MR>
  static void GemmTransAWideRows(const float* a, int64_t m, const float* b, int64_t n,
                                 float* c, int64_t i, int64_t k0, int64_t k1) {
    const int64_t n_vec = n / kW * kW;
    int64_t j = 0;
    for (; j + 2 * kW <= n_vec; j += 2 * kW) {
      GemmTransAWideTile<MR, 2>(a, m, b, n, c, i, j, k0, k1);
    }
    if (j < n_vec) {
      GemmTransAWideTile<MR, 1>(a, m, b, n, c, i, j, k0, k1);
    }
    for (int64_t r = i; r < i + MR; ++r) {
      for (int64_t jt = n_vec; jt < n; ++jt) {
        float acc = k0 == 0 ? 0.0f : c[r * n + jt];
        for (int64_t kk = k0; kk < k1; ++kk) {
          const float ak = a[kk * m + r];
          if (ak != 0.0f) {
            const float p = ak * b[kk * n + jt];
            acc = acc + p;
          }
        }
        c[r * n + jt] = acc;
      }
    }
  }

  // k-block of the wide path: its slices of a and b stay cache-resident
  // while every row tile of the range sweeps them.
  static constexpr int64_t kTransAKBlock = 256;

  // c rows [i_lo, i_hi) = aᵀ·b over all k, overwritten. Narrow b (n < kW)
  // vectorizes over a's columns for every whole vector of the range; wide
  // b vectorizes over b's columns in k-blocked register tiles, and what
  // neither covers (the n % kW columns; for narrow b, the rows past the last
  // whole vector) runs one scalar chain per element. Every element folds
  // its own kk-ascending multiply-then-add chain from +0 with the zero skip.
  static void GemmTransA(const float* a, int64_t k, int64_t m, const float* b, int64_t n,
                         float* c, int64_t i_lo, int64_t i_hi) {
    int64_t i_rest = i_lo;
    if (kW > 1 && n < kW) {
      // Per column of b: tiles of 4 vectors, then one of 2 and one of 1 for
      // what is left, so each tile reads a row of a once per kk.
      i_rest = i_lo + (i_hi - i_lo) / kW * kW;
      for (int64_t j = 0; j < n; ++j) {
        int64_t i = i_lo;
        for (; i + 4 * kW <= i_rest; i += 4 * kW) {
          GemmTransATile<4>(a, k, m, b, n, c, i, j);
        }
        if (i + 2 * kW <= i_rest) {
          GemmTransATile<2>(a, k, m, b, n, c, i, j);
          i += 2 * kW;
        }
        if (i < i_rest) {
          GemmTransATile<1>(a, k, m, b, n, c, i, j);
        }
      }
    }
    if (i_rest == i_hi) {
      return;
    }
    // k == 0 still makes one pass, which stores the zeros.
    for (int64_t k0 = 0; k0 < std::max<int64_t>(k, 1); k0 += kTransAKBlock) {
      const int64_t k1 = std::min(k, k0 + kTransAKBlock);
      int64_t i = i_rest;
      for (; i + kMr <= i_hi; i += kMr) {
        GemmTransAWideRows<kMr>(a, m, b, n, c, i, k0, k1);
      }
      for (; i < i_hi; ++i) {
        GemmTransAWideRows<1>(a, m, b, n, c, i, k0, k1);
      }
    }
  }
};

template <typename V>
KernelTable MakeTable(IsaLevel level, const char* name) {
  KernelTable t;
  t.level = level;
  t.name = name;
  t.vector_width = static_cast<int>(V::kWidth);
  t.add_row = &Body<V>::AddRow;
  t.max_row = &Body<V>::MaxRow;
  t.min_row = &Body<V>::MinRow;
  t.scale_row = &Body<V>::ScaleRow;
  t.axpy_row = &Body<V>::AxpyRow;
  t.segment_reduce = &Body<V>::SegmentReduce;
  t.segment_reduce_ext = &Body<V>::SegmentReduceExt;
  t.instance_attention = &Body<V>::InstanceAttention;
  t.instance_attention_grad = &Body<V>::InstanceAttentionGrad;
  t.instance_attention_dw = &Body<V>::InstanceAttentionDw;
  t.instance_attention_input_grad = &Body<V>::InstanceAttentionInputGrad;
  t.indirect_backward = &Body<V>::IndirectBackward;
  t.scatter_rows = &Body<V>::ScatterRows;
  t.group_reduce = &Body<V>::GroupReduce;
  t.gemm_pack_b = &Body<V>::GemmPackB;
  t.gemm = &Body<V>::Gemm;
  t.gemm_trans_a = &Body<V>::GemmTransA;
  return t;
}

}  // namespace detail
}  // namespace simd
}  // namespace flexgraph

#endif  // SRC_EXEC_SIMD_BODY_H_
