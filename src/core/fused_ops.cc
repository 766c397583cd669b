#include "src/core/fused_ops.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/workspace.h"
#include "src/util/check.h"

namespace flexgraph {

namespace {

using exec::ForEachSegmentChunk;
using exec::kMinParallelWork;

}  // namespace

Tensor FusedSegmentGatherReduce(const Tensor& x, std::span<const VertexId> leaf_ids,
                                std::span<const uint64_t> offsets, ReduceKind kind,
                                std::span<const int64_t> chunks) {
  FLEX_CHECK_GE(offsets.size(), 1u);
  FLEX_CHECK_EQ(offsets[offsets.size() - 1], leaf_ids.size());
  const int64_t num_segments = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t d = x.cols();
  Tensor out = WsTensor(num_segments, d);
  const int64_t total_work = static_cast<int64_t>(leaf_ids.size()) * d;
  // Sum/mean accumulate source rows directly into the destination buffer — no
  // per-edge message tensor exists. The dispatched kernel vectorizes along d
  // (the paper's AVX feature-fusion path) and software-prefetches upcoming
  // leaf rows to hide the gather's DRAM latency.
  const simd::KernelTable& kt = simd::Kernels();
  const simd::Reduce sk = ToSimdReduce(kind);
  ForEachSegmentChunk(offsets, chunks, total_work, [&](int64_t s_lo, int64_t s_hi) {
    kt.segment_reduce(x.data(), d, leaf_ids.data(), offsets.data(), s_lo, s_hi, sk, out.data());
  });
  return out;
}

namespace {

// Runs gather_range(v_lo, v_hi) over an inverse map's source rows — inline
// over all of them when the work is small or the pool has one thread, else
// one task per precompiled source chunk. Each source row is owned by one
// task, so any split gives the same bits.
void ForEachSourceChunk(const U64Vec& src_offsets, const I64Vec& src_chunks, int64_t d,
                        const std::function<void(int64_t, int64_t)>& gather_range) {
  const auto& soff = *src_offsets;
  const int64_t mapped_rows = static_cast<int64_t>(soff.size()) - 1;
  const int64_t total_work = static_cast<int64_t>(soff.back()) * d;
  if (total_work < kMinParallelWork || exec::NumThreads() <= 1) {
    gather_range(0, mapped_rows);
  } else {
    const auto& bounds = *src_chunks;
    exec::ParallelChunks(static_cast<int64_t>(bounds.size()) - 1, [&](int64_t c) {
      gather_range(bounds[static_cast<std::size_t>(c)], bounds[static_cast<std::size_t>(c) + 1]);
    });
  }
}

// Backward of the indirect segment reduce: the inverse (source→segment) map
// turns the scatter-add into a gather — each source row is owned by exactly
// one task. Contributions are listed in ascending edge order, the order a
// sequential scatter-add over the edges visits them, so sums are bitwise
// identical to it at every thread count.
Tensor InverseMapBackward(const Tensor& grad_out, const U64Vec& src_offsets,
                          const U32Vec& src_edge_segments, const I64Vec& src_chunks,
                          const U64Vec& offsets, ReduceKind kind, int64_t src_rows, int64_t d) {
  Tensor gx = WsTensor(src_rows, d);
  const simd::KernelTable& kt = simd::Kernels();
  const simd::Reduce sk = ToSimdReduce(kind);
  ForEachSourceChunk(src_offsets, src_chunks, d, [&](int64_t v_lo, int64_t v_hi) {
    kt.indirect_backward(grad_out.data(), d, src_offsets->data(), src_edge_segments->data(),
                         offsets->data(), sk, v_lo, v_hi, gx.data());
  });
  return gx;
}

// ---- Common-subtree fusion execution (FusionPlan, see src/exec/plan.h) ----
//
// Forward: materialize each shared partial exactly once (level by level —
// a partial only references strictly lower-indexed partials, so levels are
// parallel-safe), then run the rewritten root reduce over extended ids.
// Partials are plain sums; mean segments scale by the ORIGINAL width at the
// root, so the fused result is bitwise identical to the unfused fold (a
// zero-seeded left-fold never produces -0.0, hence 0 + P == P bitwise).
Tensor FusedSubtreeForward(const Tensor& x, const FusionPlan& fp, ReduceKind kind) {
  const int64_t d = x.cols();
  const simd::KernelTable& kt = simd::Kernels();
  const auto& poffs = *fp.partial_offsets;
  const auto& pids = *fp.partial_ids;

  Tensor partials = WsTensor(fp.num_partials, d);
  int64_t start = 0;
  for (std::size_t l = 0; l < fp.level_ends.size(); ++l) {
    const int64_t end = fp.level_ends[l];
    if (end == start) {
      continue;
    }
    const auto build_range = [&](int64_t p_lo, int64_t p_hi) {
      kt.segment_reduce_ext(x.data(), fp.base_rows, partials.data(), d, pids.data(),
                            poffs.data(), /*scale_offsets=*/nullptr, p_lo, p_hi,
                            simd::Reduce::kSum, partials.data());
    };
    const int64_t level_work =
        static_cast<int64_t>(poffs[static_cast<std::size_t>(end)] -
                             poffs[static_cast<std::size_t>(start)]) *
        d;
    const I64Vec& chunks = fp.level_chunks[l];
    if (level_work < kMinParallelWork || exec::NumThreads() <= 1) {
      build_range(start, end);
    } else {
      const auto& bounds = *chunks;
      exec::ParallelChunks(static_cast<int64_t>(bounds.size()) - 1, [&](int64_t c) {
        build_range(bounds[static_cast<std::size_t>(c)],
                    bounds[static_cast<std::size_t>(c) + 1]);
      });
    }
    start = end;
  }

  const auto& offs = *fp.offsets;
  const int64_t num_segments = static_cast<int64_t>(offs.size()) - 1;
  Tensor out = WsTensor(num_segments, d);
  const simd::Reduce sk = ToSimdReduce(kind);
  const int64_t total_work = static_cast<int64_t>(fp.ids->size()) * d;
  ForEachSegmentChunk(offs, *fp.chunks, total_work, [&](int64_t s_lo, int64_t s_hi) {
    kt.segment_reduce_ext(x.data(), fp.base_rows, partials.data(), d, fp.ids->data(),
                          offs.data(), fp.scale_offsets->data(), s_lo, s_hi, sk, out.data());
  });
  return out;
}

// Backward of the fused forward. Phase 1 (the caller's, `gx_ext`): the
// extended inverse map routes each rewritten segment's gradient to the
// extended source rows (base rows and partials) — the parallel per-source
// gather, with the ORIGINAL segment widths (scale_offsets) driving the mean
// scaling. Phase 2: partial rows distribute their gradient to their build
// refs, highest partial index first (a partial only references lower
// indices, so its own gradient is complete by the time it distributes).
// Phase 3: the base slice is the input gradient. Deterministic across
// threads and ISA levels; not bitwise equal to the unfused backward
// (different — but fixed — accumulation order).
Tensor FusedSubtreeBackward(Tensor gx_ext, const FusionPlan& fp, int64_t src_rows, int64_t d) {
  const simd::KernelTable& kt = simd::Kernels();
  const auto& poffs = *fp.partial_offsets;
  const auto& pids = *fp.partial_ids;
  for (int64_t p = fp.num_partials - 1; p >= 0; --p) {
    const float* gp = gx_ext.Row(fp.base_rows + p);
    for (uint64_t e = poffs[static_cast<std::size_t>(p)];
         e < poffs[static_cast<std::size_t>(p) + 1]; ++e) {
      kt.add_row(gx_ext.Row(static_cast<int64_t>(pids[e])), gp, d);
    }
  }
  Tensor gx = WsTensor(src_rows, d);
  std::memcpy(gx.data(), gx_ext.data(),
              static_cast<std::size_t>(fp.base_rows * d) * sizeof(float));
  return gx;
}

}  // namespace

Variable AgIndirectSegmentReduce(const Variable& x, const LevelPlan& level, ReduceKind kind,
                                 ExecStrategy strategy, AggregationStats* stats) {
  FLEX_CHECK_MSG(kind == ReduceKind::kSum || kind == ReduceKind::kMean,
                 "differentiable aggregation supports sum/mean");
  FLEX_CHECK(level.offsets && level.leaf_ids && level.src_offsets && level.src_edge_segments);
  const int64_t d = x.cols();
  const int64_t src_rows = x.rows();
  const std::size_t num_refs = level.leaf_ids->size();
  Tensor out;

  if (strategy == ExecStrategy::kSparse) {
    // SA: still materializes the gathered [E, d] message tensor (that cost is
    // what the strategy models), but reduces it over the plan's precompiled
    // segment boundaries instead of building a COO index per call. The
    // accumulation order per destination is identical to the scatter kernel's
    // ascending-row order, so numerics are bitwise unchanged.
    FLEX_TRACE_SPAN("kernel.sa_gather_scatter", {{"rows", static_cast<double>(num_refs)}});
    FLEX_COUNTER_ADD("kernel.sparse_leaf_refs", static_cast<int64_t>(num_refs));
    Tensor gathered = GatherRows(x.value(), *level.leaf_ids);
    if (stats != nullptr) {
      // The gathered rows plus the per-row segment index a scatter reads.
      stats->materialized_bytes += gathered.ByteSize() + num_refs * sizeof(uint32_t);
      stats->sparse_rows += static_cast<uint64_t>(gathered.rows());
    }
    out = SegmentReduce(gathered, *level.offsets, kind, *level.chunks);
  } else if (level.fusion != nullptr) {
    // FA with a mined fusion program: shared subtrees materialize once, the
    // root reduce reads the rewritten (shorter) ref lists.
    const FusionPlan& fp = *level.fusion;
    FLEX_TRACE_SPAN("kernel.fa_fused_gather_reduce",
                    {{"rows", static_cast<double>(fp.leaf_refs_after)},
                     {"shared_partials", static_cast<double>(fp.num_partials)}});
    FLEX_COUNTER_ADD("kernel.fused_leaf_refs", static_cast<int64_t>(fp.leaf_refs_after));
    out = FusedSubtreeForward(x.value(), fp, kind);
    if (stats != nullptr) {
      stats->fused_rows += num_refs;
    }
  } else {
    FLEX_TRACE_SPAN("kernel.fa_fused_gather_reduce", {{"rows", static_cast<double>(num_refs)}});
    FLEX_COUNTER_ADD("kernel.fused_leaf_refs", static_cast<int64_t>(num_refs));
    out = FusedSegmentGatherReduce(x.value(), *level.leaf_ids, *level.offsets, kind,
                                   *level.chunks);
    if (stats != nullptr) {
      stats->fused_rows += num_refs;
    }
  }

  auto xn = x.node();
  const U64Vec offs = level.offsets;
  const U64Vec soff = level.src_offsets;
  const U32Vec ssegs = level.src_edge_segments;
  const I64Vec schunks = level.src_chunks;
  const std::shared_ptr<const FusionPlan> fused =
      strategy == ExecStrategy::kSparse ? nullptr : level.fusion;
  return MakeVariable(std::move(out), {x},
                      [xn, offs, soff, ssegs, schunks, fused, kind, src_rows, d](AgNode& self) {
                        xn->AccumulateGrad(
                            fused != nullptr
                                ? FusedSubtreeBackward(
                                      InverseMapBackward(self.grad(), fused->src_offsets,
                                                         fused->src_edge_segments,
                                                         fused->src_chunks, fused->scale_offsets,
                                                         kind, fused->src_rows, d),
                                      *fused, src_rows, d)
                                : InverseMapBackward(self.grad(), soff, ssegs, schunks, offs,
                                                     kind, src_rows, d));
                      });
}

namespace {

// Runs body(c, s_lo, s_hi) over a plan's segment chunks — inline as
// body(0, 0, S) when the work is small or the pool has one thread — so a
// task can index its own scratch by its chunk. A chunk never splits a
// segment, so the split does not change the bits.
void ForEachIndexedChunk(const std::vector<int64_t>& chunks, int64_t total_work,
                         const std::function<void(int64_t, int64_t, int64_t)>& body) {
  const auto num_chunks = static_cast<int64_t>(chunks.size()) - 1;
  if (num_chunks <= 0) {
    return;
  }
  if (num_chunks == 1 || total_work < kMinParallelWork || exec::NumThreads() <= 1) {
    body(0, chunks.front(), chunks.back());
    return;
  }
  exec::ParallelChunks(num_chunks, [&](int64_t c) {
    body(c, chunks[static_cast<std::size_t>(c)], chunks[static_cast<std::size_t>(c) + 1]);
  });
}

int64_t LongestSegment(const std::vector<uint64_t>& offsets) {
  uint64_t longest = 0;
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    longest = std::max(longest, offsets[s + 1] - offsets[s]);
  }
  return static_cast<int64_t>(longest);
}

}  // namespace

Variable AgInstanceAttention(const Variable& x, const Variable& w, const Variable& b,
                             const LevelPlan& bottom, const LevelPlan& instance,
                             AggregationStats* stats) {
  const int64_t d = x.cols();
  FLEX_CHECK_EQ(w.rows(), d);
  FLEX_CHECK_EQ(w.cols(), 1);
  FLEX_CHECK_EQ(b.rows(), 1);
  FLEX_CHECK_EQ(b.cols(), 1);
  FLEX_CHECK(bottom.offsets && bottom.leaf_ids && bottom.src_offsets &&
             bottom.src_edge_segments && bottom.src_chunks);
  FLEX_CHECK(instance.offsets && instance.chunks && instance.scatter_index);
  const auto& leaf_offs = *bottom.offsets;
  const auto& slot_offs = *instance.offsets;
  const auto num_instances = static_cast<int64_t>(leaf_offs.size()) - 1;
  const auto num_slots = static_cast<int64_t>(slot_offs.size()) - 1;
  FLEX_CHECK_EQ(static_cast<int64_t>(slot_offs.back()), num_instances);
  const auto num_refs = static_cast<int64_t>(bottom.leaf_ids->size());
  FLEX_TRACE_SPAN("kernel.fa_instance_attention",
                  {{"rows", static_cast<double>(num_refs)},
                   {"instances", static_cast<double>(num_instances)}});
  FLEX_COUNTER_ADD("kernel.fused_leaf_refs", num_refs);

  // Everything the op writes — outputs, the saved α and the per-chunk mean
  // tiles — comes from the workspace here, on the driving thread, before
  // any task runs; no size depends on the thread count. Every element is
  // written by a kernel before it is read.
  const auto num_chunks = std::max<int64_t>(1, static_cast<int64_t>(instance.chunks->size()) - 1);
  Tensor tiles = WsTensorUninit(num_chunks, LongestSegment(slot_offs) * d);
  Tensor alpha = WsTensorUninit(num_instances, 1);
  Tensor out = WsTensorUninit(num_slots, d);
  const simd::KernelTable& kt = simd::Kernels();
  const float* xd = x.value().data();
  const float bias = b.value().At(0, 0);
  ForEachIndexedChunk(*instance.chunks, num_refs * d, [&](int64_t c, int64_t s_lo, int64_t s_hi) {
    kt.instance_attention(xd, d, bottom.leaf_ids->data(), leaf_offs.data(), slot_offs.data(),
                          w.value().data(), bias, s_lo, s_hi, tiles.Row(c), alpha.data(),
                          out.data());
  });
  if (stats != nullptr) {
    stats->fused_rows += static_cast<uint64_t>(num_refs);
    stats->sparse_rows += static_cast<uint64_t>(num_instances);
  }

  auto xn = x.node();
  auto wn = w.node();
  auto bn = b.node();
  const U64Vec leaf_offsets = bottom.offsets;
  const U32Vec ids = bottom.leaf_ids;
  const U64Vec slot_offsets = instance.offsets;
  const I64Vec chunks = instance.chunks;
  const U32Vec slot_of = instance.scatter_index;
  const U64Vec soff = bottom.src_offsets;
  const U32Vec ssegs = bottom.src_edge_segments;
  const I64Vec schunks = bottom.src_chunks;
  const std::shared_ptr<const FusionPlan> fused = bottom.fusion;
  const int64_t src_rows = x.rows();
  return MakeVariable(
      std::move(out), {x, w, b},
      [xn, wn, bn, leaf_offsets, ids, slot_offsets, chunks, slot_of, soff, ssegs, schunks, fused,
       src_rows, num_instances, num_refs, d, alpha = std::move(alpha),
       tiles = std::move(tiles)](AgNode& self) mutable {
        const Tensor& g = self.grad();
        const simd::KernelTable& kt = simd::Kernels();
        const float* xd = xn->value().data();
        // Pass A: the score gradient, [I, 1] — the only column the backward
        // writes per instance.
        Tensor dscore = WsTensorUninit(num_instances, 1);
        ForEachIndexedChunk(*chunks, num_refs * d, [&](int64_t c, int64_t s_lo, int64_t s_hi) {
          kt.instance_attention_grad(xd, d, ids->data(), leaf_offsets->data(),
                                     slot_offsets->data(), alpha.data(), g.data(), s_lo, s_hi,
                                     tiles.Row(c), dscore.data());
        });
        if (wn->requires_grad()) {
          // Pass B: tasks own whole 16-column blocks of dw and sweep every
          // instance in ascending i, as MatMulTransA's tasks do.
          constexpr int64_t kBlock = simd::kPackAlignFloats;
          Tensor dw = WsTensorUninit(d, 1);
          exec::ParallelFor(0, (d + kBlock - 1) / kBlock, exec::RowGrain(kBlock * num_refs),
                            [&](int64_t lo, int64_t hi) {
                              kt.instance_attention_dw(xd, d, ids->data(), leaf_offsets->data(),
                                                       num_instances, dscore.data(), lo * kBlock,
                                                       std::min(d, hi * kBlock), dw.data());
                            });
          wn->AccumulateGrad(std::move(dw));
        }
        if (bn->requires_grad()) {
          bn->AccumulateGrad(ColSum(dscore));
        }
        if (xn->requires_grad()) {
          // Pass C: the bottom level's backward, its instance gradient rows
          // rebuilt in registers from α, dscore, w and the slot gradient.
          const auto gather = [&](const U64Vec& src_offsets, const U32Vec& src_segments,
                                  const I64Vec& src_chunks, const U64Vec& seg_offsets,
                                  int64_t rows) {
            Tensor gx = WsTensor(rows, d);
            ForEachSourceChunk(src_offsets, src_chunks, d, [&](int64_t v_lo, int64_t v_hi) {
              kt.instance_attention_input_grad(g.data(), d, slot_of->data(), alpha.data(),
                                               dscore.data(), wn->value().data(),
                                               src_offsets->data(), src_segments->data(),
                                               seg_offsets->data(), v_lo, v_hi, gx.data());
            });
            return gx;
          };
          xn->AccumulateGrad(
              fused != nullptr
                  ? FusedSubtreeBackward(gather(fused->src_offsets, fused->src_edge_segments,
                                                fused->src_chunks, fused->scale_offsets,
                                                fused->src_rows),
                                         *fused, src_rows, d)
                  : gather(soff, ssegs, schunks, leaf_offsets, src_rows));
        }
      });
}

Variable AgSchemaReduce(const Variable& slots, const LevelPlan& level, ReduceKind kind,
                        ExecStrategy strategy, AggregationStats* stats) {
  const int64_t group = level.group;
  FLEX_CHECK_GT(group, 0);
  FLEX_CHECK_EQ(slots.rows() % group, 0);
  if (strategy == ExecStrategy::kHybrid) {
    if (stats != nullptr) {
      stats->dense_rows += static_cast<uint64_t>(slots.rows());
    }
    return kind == ReduceKind::kMean ? AgGroupMean(slots, group) : AgGroupSum(slots, group);
  }
  FLEX_CHECK(level.scatter_index);
  FLEX_CHECK_EQ(static_cast<int64_t>(level.scatter_index->size()), slots.rows());
  if (stats != nullptr) {
    stats->sparse_rows += static_cast<uint64_t>(slots.rows());
    stats->materialized_bytes += level.scatter_index->size() * sizeof(uint32_t);
  }
  return AgScatter(slots, level.scatter_index, slots.rows() / group, kind);
}

Variable AgGroupConcat(const Variable& x, int64_t group) {
  FLEX_CHECK_EQ(x.rows() % group, 0);
  const int64_t n = x.rows() / group;
  const int64_t d = x.cols();
  // Row-major [n·g, d] and [n, g·d] share the same linear layout; the forward
  // is a straight copy and the backward the inverse copy.
  Tensor out = WsTensorUninit(n, group * d);
  std::memcpy(out.data(), x.value().data(),
              static_cast<std::size_t>(x.value().numel()) * sizeof(float));
  auto xn = x.node();
  const int64_t rows = x.rows();
  return MakeVariable(std::move(out), {x}, [xn, rows, d](AgNode& self) {
    Tensor g = WsTensorUninit(rows, d);
    std::memcpy(g.data(), self.grad().data(),
                static_cast<std::size_t>(g.numel()) * sizeof(float));
    xn->AccumulateGrad(std::move(g));
  });
}

}  // namespace flexgraph
