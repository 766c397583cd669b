#include "src/baselines/pytorch_like.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/baselines/kernels.h"
#include "src/graph/metapath.h"
#include "src/models/magnn.h"
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

// Dense Update shared by the baselines: ReLU(concat-free W·(h+nbr)).
Tensor DenseUpdateAdd(const Tensor& h, const Tensor& nbr, const Tensor& w, bool relu) {
  Tensor combined = Add(h, nbr);
  Tensor out = MatMul(combined, w);
  return relu ? Relu(out) : out;
}

Tensor DenseUpdateConcat(const Tensor& h, const Tensor& nbr, const Tensor& w, bool relu) {
  Tensor combined = ConcatCols(h, nbr);
  Tensor out = MatMul(combined, w);
  return relu ? Relu(out) : out;
}

}  // namespace

EpochOutcome PyTorchLikeGcnEpoch(const Dataset& ds, const ModelDims& dims, Rng& rng) {
  const CsrGraph& g = ds.graph;
  const int64_t n = g.num_vertices();
  const int64_t in_dim = ds.feature_dim();
  Tensor w1 = RandomWeight(in_dim, dims.hidden, rng);
  Tensor w2 = RandomWeight(dims.hidden, dims.num_classes, rng);

  // Pre-materialize the COO form once, as a tensor framework would keep it.
  std::vector<uint32_t> srcs(g.in_neighbors().begin(), g.in_neighbors().end());
  std::vector<uint32_t> dsts(srcs.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (uint64_t e = g.in_offsets()[v]; e < g.in_offsets()[v + 1]; ++e) {
      dsts[e] = v;
    }
  }

  EpochOutcome outcome;
  WallTimer timer;
  Tensor h = ds.features;
  for (int layer = 0; layer < 2; ++layer) {
    // Gather → edge tensor (materialized) → ApplyEdge pass → generic COO
    // scatter with scalar accumulation.
    Tensor edge_messages = GatherRows(h, srcs);
    Tensor edge_out(edge_messages.rows(), edge_messages.cols());
    std::memcpy(edge_out.data(), edge_messages.data(),
                static_cast<std::size_t>(edge_messages.numel()) * sizeof(float));
    outcome.peak_bytes =
        std::max<uint64_t>(outcome.peak_bytes, edge_messages.ByteSize() + edge_out.ByteSize());
    Tensor nbr = ScalarCooScatterSum(edge_out, dsts, n);
    h = DenseUpdateAdd(h, nbr, layer == 0 ? w1 : w2, layer == 0);
  }
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

EpochOutcome PyTorchLikePinSageEpoch(const Dataset& ds, const ModelDims& dims,
                                     const WalkParams& walks, Rng& rng) {
  const CsrGraph& g = ds.graph;
  const int64_t n = g.num_vertices();
  const int64_t in_dim = ds.feature_dim();
  Tensor w1 = RandomWeight(2 * in_dim, dims.hidden, rng);
  Tensor w2 = RandomWeight(2 * dims.hidden, dims.num_classes, rng);

  EpochOutcome outcome;
  WallTimer timer;
  Tensor h = ds.features;
  for (int layer = 0; layer < 2; ++layer) {
    // Random walks simulated through graph propagation stages (paper §2.3):
    // every hop of every walk materializes a gathered [n, d] feature tensor,
    // an ApplyEdge-style pass, and an accumulate — this is where >95% of the
    // epoch goes.
    std::vector<std::unordered_map<VertexId, uint32_t>> visits(static_cast<std::size_t>(n));
    std::vector<uint32_t> pos(static_cast<std::size_t>(n));
    Tensor walk_acc(n, h.cols());
    for (int walk = 0; walk < walks.num_walks; ++walk) {
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        pos[v] = v;
      }
      for (int hop = 0; hop < walks.hops; ++hop) {
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const auto nbrs = g.OutNeighbors(pos[v]);
          if (!nbrs.empty()) {
            pos[v] = nbrs[rng.NextBounded(nbrs.size())];
            if (pos[v] != v) {
              ++visits[v][pos[v]];
            }
          }
        }
        // The propagation stage the tensor framework actually executes.
        Tensor gathered = GatherRows(h, pos);
        Tensor applied(gathered.rows(), gathered.cols());
        std::memcpy(applied.data(), gathered.data(),
                    static_cast<std::size_t>(gathered.numel()) * sizeof(float));
        AddInPlace(walk_acc, applied);
        outcome.peak_bytes = std::max<uint64_t>(
            outcome.peak_bytes, gathered.ByteSize() + applied.ByteSize());
      }
    }

    // Top-k by visit count, then a sparse aggregation over the selections.
    std::vector<uint32_t> sel_src;
    std::vector<uint32_t> sel_dst;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      std::vector<std::pair<uint32_t, VertexId>> ranked;
      ranked.reserve(visits[v].size());
      for (const auto& [u, c] : visits[v]) {
        ranked.emplace_back(c, u);
      }
      std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) {
          return a.first > b.first;
        }
        return a.second < b.second;
      });
      const std::size_t k = std::min<std::size_t>(ranked.size(),
                                                  static_cast<std::size_t>(walks.top_k));
      for (std::size_t i = 0; i < k; ++i) {
        sel_src.push_back(ranked[i].second);
        sel_dst.push_back(v);
      }
    }
    Tensor gathered = GatherRows(h, sel_src);
    Tensor nbr = ScalarCooScatterSum(gathered, sel_dst, n);
    h = DenseUpdateConcat(h, nbr, layer == 0 ? w1 : w2, layer == 0);
  }
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

EpochOutcome PyTorchLikeMagnnEpoch(const Dataset& ds, const ModelDims& dims,
                                   uint64_t mem_cap_bytes, std::size_t max_instances_per_path,
                                   Rng& rng) {
  const CsrGraph& g = ds.graph;
  if (!g.is_heterogeneous()) {
    return EpochOutcome::Unsupported();
  }
  const int64_t n = g.num_vertices();
  const int64_t in_dim = ds.feature_dim();
  const std::vector<Metapath> metapaths = DefaultMetapaths3Type();
  Tensor w1 = RandomWeight(in_dim, dims.hidden, rng);
  Tensor w2 = RandomWeight(dims.hidden, dims.num_classes, rng);

  EpochOutcome outcome;
  WallTimer timer;

  // Metapath matching re-done per epoch (the tensor framework has no graph
  // index to cache; paper: >95% of the epoch). Results are converted to
  // padded tensors immediately, as a tensor pipeline requires. Unlike
  // FlexGraph's NeighborSelection, the reference implementation has *no*
  // per-root instance cap — the very reason its padded tensors exhaust
  // memory on big graphs — so matching aborts with OOM once the projected
  // tensor exceeds the budget. max_instances_per_path == 0 means uncapped.
  MetapathMatchOptions options;
  options.max_instances_per_path = max_instances_per_path;
  // Instance i is inst_vertices[inst_offsets[i], inst_offsets[i + 1]), root first.
  std::vector<VertexId> inst_vertices;
  std::vector<uint64_t> inst_offsets{0};
  std::size_t path_len = 3;  // metapaths here are all length-2 (3 vertices)
  const uint64_t bytes_per_instance =
      static_cast<uint64_t>(path_len) * static_cast<uint64_t>(in_dim) * sizeof(float) * 2;
  const uint64_t instance_budget = mem_cap_bytes / std::max<uint64_t>(1, bytes_per_instance);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ForEachMetapathInstance(g, v, metapaths, options,
                            [&](uint32_t, std::span<const VertexId> instance) {
                              path_len = std::max(path_len, instance.size());
                              inst_vertices.insert(inst_vertices.end(), instance.begin(),
                                                   instance.end());
                              inst_offsets.push_back(inst_vertices.size());
                            });
    if (inst_offsets.size() - 1 > instance_budget) {
      const uint64_t projected =
          static_cast<uint64_t>(inst_offsets.size() - 1) * bytes_per_instance *
          std::max<uint64_t>(1, g.num_vertices() / (v + 1));
      return EpochOutcome::Oom(projected);
    }
  }
  const std::size_t num_instances = inst_offsets.size() - 1;

  // Padded instance tensor [I, L·d]: every instance materializes all member
  // features side by side — the "large intermediate tensors" that OOM the
  // real PyTorch implementation on big graphs.
  const uint64_t padded_bytes = static_cast<uint64_t>(num_instances) * bytes_per_instance;
  outcome.peak_bytes = padded_bytes;
  if (padded_bytes > mem_cap_bytes) {
    return EpochOutcome::Oom(padded_bytes);
  }

  Tensor h = ds.features;
  for (int layer = 0; layer < 2; ++layer) {
    const int64_t d = h.cols();
    Tensor padded(static_cast<int64_t>(num_instances), static_cast<int64_t>(path_len) * d);
    std::vector<uint32_t> inst_root(num_instances);
    for (std::size_t i = 0; i < num_instances; ++i) {
      inst_root[i] = inst_vertices[inst_offsets[i]];
      for (uint64_t p = 0; p < inst_offsets[i + 1] - inst_offsets[i]; ++p) {
        std::memcpy(padded.Row(static_cast<int64_t>(i)) + static_cast<int64_t>(p) * d,
                    h.Row(inst_vertices[inst_offsets[i] + p]),
                    static_cast<std::size_t>(d) * sizeof(float));
      }
    }
    // Instance representation: mean over the padded axis.
    Tensor inst_feats(static_cast<int64_t>(num_instances), d);
    for (int64_t i = 0; i < inst_feats.rows(); ++i) {
      const float* prow = padded.Row(i);
      float* orow = inst_feats.Row(i);
      for (std::size_t p = 0; p < path_len; ++p) {
        for (int64_t j = 0; j < d; ++j) {
          orow[j] += prow[static_cast<int64_t>(p) * d + j];
        }
      }
      for (int64_t j = 0; j < d; ++j) {
        orow[j] /= static_cast<float>(path_len);
      }
    }
    // Root neighborhood: scalar COO scatter-mean over instances.
    Tensor sums = ScalarCooScatterSum(inst_feats, inst_root, n);
    const std::vector<uint32_t> counts = ScatterCounts(inst_root, n);
    for (int64_t v = 0; v < n; ++v) {
      if (counts[static_cast<std::size_t>(v)] > 1) {
        float* row = sums.Row(v);
        const float inv = 1.0f / static_cast<float>(counts[static_cast<std::size_t>(v)]);
        for (int64_t j = 0; j < d; ++j) {
          row[j] *= inv;
        }
      }
    }
    Tensor out = MatMul(sums, layer == 0 ? w1 : w2);
    h = layer == 0 ? Relu(out) : out;
  }
  outcome.seconds = timer.ElapsedSeconds();
  return outcome;
}

}  // namespace flexgraph
