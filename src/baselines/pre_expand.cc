#include "src/baselines/pre_expand.h"

#include <algorithm>
#include <unordered_map>

#include "src/baselines/kernels.h"
#include "src/graph/random_walk.h"
#include "src/tensor/nn.h"
#include "src/tensor/ops_dense.h"
#include "src/tensor/ops_sparse.h"
#include "src/util/timer.h"

namespace flexgraph {

namespace {

Tensor RandomWeight(int64_t rows, int64_t cols, Rng& rng) {
  Tensor w(rows, cols);
  XavierUniformFill(w, rng);
  return w;
}

}  // namespace

PinSageExpandedGraph PrecomputePinSageExpandedGraph(const CsrGraph& g, const WalkParams& walks,
                                                    int walk_multiplier, Rng& rng) {
  PinSageExpandedGraph expanded;
  expanded.offsets.push_back(0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    // Many more walks than the online model — the candidate list converges
    // toward the true visit distribution so runtime sampling is "qualitatively
    // the same" (paper §7.2).
    std::unordered_map<VertexId, uint32_t> freq;
    for (int w = 0; w < walks.num_walks * walk_multiplier; ++w) {
      VertexId cur = v;
      for (int hop = 0; hop < walks.hops; ++hop) {
        const auto nbrs = g.OutNeighbors(cur);
        if (nbrs.empty()) {
          break;
        }
        cur = nbrs[rng.NextBounded(nbrs.size())];
        if (cur != v) {
          ++freq[cur];
        }
      }
    }
    std::vector<std::pair<VertexId, uint32_t>> ranked(freq.begin(), freq.end());
    std::sort(ranked.begin(), ranked.end());
    float acc = 0.0f;
    for (const auto& [u, c] : ranked) {
      expanded.candidates.push_back(u);
      acc += static_cast<float>(c);
      expanded.cumulative_weight.push_back(acc);
    }
    expanded.offsets.push_back(expanded.candidates.size());
  }
  return expanded;
}

EpochOutcome PreExpandPinSageEpoch(const Dataset& ds, const ModelDims& dims,
                                   const PinSageExpandedGraph& expanded, const WalkParams& walks,
                                   Rng& rng) {
  const CsrGraph& g = ds.graph;
  const int64_t in_dim = ds.feature_dim();
  Tensor w1 = RandomWeight(2 * in_dim, dims.hidden, rng);
  Tensor w2 = RandomWeight(2 * dims.hidden, dims.num_classes, rng);

  EpochOutcome outcome;
  WallTimer timer;
  Tensor h = ds.features;
  for (int layer = 0; layer < 2; ++layer) {
    // Weighted sampling on the expanded graph (per layer — DGL has no HDG to
    // share across layers).
    std::vector<VertexId> sel_src;
    std::vector<uint64_t> sel_offsets{0};
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const uint64_t lo = expanded.offsets[v];
      const uint64_t hi = expanded.offsets[v + 1];
      if (hi > lo) {
        const float total = expanded.cumulative_weight[hi - 1];
        for (int k = 0; k < walks.top_k; ++k) {
          const float r = rng.NextFloat() * total;
          const auto* begin = expanded.cumulative_weight.data() + lo;
          const auto* end = expanded.cumulative_weight.data() + hi;
          const auto* it = std::lower_bound(begin, end, r);
          const uint64_t idx = lo + static_cast<uint64_t>(it - begin);
          sel_src.push_back(expanded.candidates[std::min(idx, hi - 1)]);
        }
      }
      sel_offsets.push_back(sel_src.size());
    }
    // GAS execution on the expanded graph: Scatter materializes the sampled
    // neighbors' features as an edge tensor, Gather reduces it per vertex.
    std::vector<uint32_t> sel_src_u32(sel_src.begin(), sel_src.end());
    Tensor edge_messages = GatherRows(h, sel_src_u32);
    outcome.peak_bytes = std::max<uint64_t>(outcome.peak_bytes, edge_messages.ByteSize());
    std::vector<uint32_t> sel_dst(sel_src.size());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (uint64_t e = sel_offsets[v]; e < sel_offsets[v + 1]; ++e) {
        sel_dst[e] = v;
      }
    }
    Tensor nbr = ScalarCooScatterSum(edge_messages, sel_dst, g.num_vertices());
    Tensor out = MatMul(ConcatCols(h, nbr), layer == 0 ? w1 : w2);
    h = layer == 0 ? Relu(out) : out;
  }
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

MagnnExpandedGraph PrecomputeMagnnExpandedGraph(const CsrGraph& g,
                                                const std::vector<Metapath>& metapaths,
                                                std::size_t max_instances_per_path) {
  MagnnExpandedGraph expanded;
  expanded.num_types = static_cast<uint32_t>(metapaths.size());
  expanded.instance_offsets.push_back(0);
  MetapathMatchOptions options;
  options.max_instances_per_path = max_instances_per_path;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ForEachMetapathInstance(g, v, metapaths, options,
                            [&](uint32_t metapath_index, std::span<const VertexId> instance) {
                              expanded.leaf_ids.insert(expanded.leaf_ids.end(), instance.begin(),
                                                       instance.end());
                              expanded.instance_offsets.push_back(expanded.leaf_ids.size());
                              expanded.instance_root.push_back(v);
                              expanded.instance_type.push_back(metapath_index);
                            });
  }
  return expanded;
}

EpochOutcome PreExpandMagnnEpoch(const Dataset& ds, const ModelDims& dims,
                                 const MagnnExpandedGraph& expanded, Rng& rng) {
  const CsrGraph& g = ds.graph;
  const int64_t n = g.num_vertices();
  const int64_t in_dim = ds.feature_dim();
  Tensor w1 = RandomWeight(in_dim, dims.hidden, rng);
  Tensor w2 = RandomWeight(dims.hidden, dims.num_classes, rng);
  const auto num_instances = static_cast<int64_t>(expanded.instance_root.size());

  EpochOutcome outcome;
  WallTimer timer;
  Tensor h = ds.features;
  for (int layer = 0; layer < 2; ++layer) {
    const int64_t d = h.cols();
    // GAS stage 1 (level 3→2): gather leaf features into an explicit edge
    // tensor, then scatter per instance — full materialization, as GAS must.
    std::vector<uint32_t> leaf_src(expanded.leaf_ids.begin(), expanded.leaf_ids.end());
    Tensor leaf_messages = GatherRows(h, leaf_src);
    outcome.peak_bytes = std::max<uint64_t>(outcome.peak_bytes, leaf_messages.ByteSize());
    std::vector<uint32_t> leaf_dst(leaf_src.size());
    for (int64_t i = 0; i < num_instances; ++i) {
      for (uint64_t e = expanded.instance_offsets[static_cast<std::size_t>(i)];
           e < expanded.instance_offsets[static_cast<std::size_t>(i) + 1]; ++e) {
        leaf_dst[e] = static_cast<uint32_t>(i);
      }
    }
    Tensor inst_sums = ScalarCooScatterSum(leaf_messages, leaf_dst, num_instances);
    const std::vector<uint32_t> leaf_counts = ScatterCounts(leaf_dst, num_instances);
    for (int64_t i = 0; i < num_instances; ++i) {
      const uint32_t c = leaf_counts[static_cast<std::size_t>(i)];
      if (c > 1) {
        float* row = inst_sums.Row(i);
        for (int64_t j = 0; j < d; ++j) {
          row[j] /= static_cast<float>(c);
        }
      }
    }

    // GAS stage 2 (levels 2→1→0 collapsed into per-root scatter; a GAS
    // framework has no dense schema-level op).
    std::vector<uint32_t> root_dst(expanded.instance_root.begin(), expanded.instance_root.end());
    Tensor root_sums = ScalarCooScatterSum(inst_sums, root_dst, n);
    const std::vector<uint32_t> root_counts = ScatterCounts(root_dst, n);
    for (int64_t v = 0; v < n; ++v) {
      const uint32_t c = root_counts[static_cast<std::size_t>(v)];
      if (c > 1) {
        float* row = root_sums.Row(v);
        for (int64_t j = 0; j < d; ++j) {
          row[j] /= static_cast<float>(c);
        }
      }
    }
    Tensor out = MatMul(root_sums, layer == 0 ? w1 : w2);
    h = layer == 0 ? Relu(out) : out;
  }
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

}  // namespace flexgraph
