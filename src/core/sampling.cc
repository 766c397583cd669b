#include "src/core/sampling.h"

#include <algorithm>

#include "src/util/check.h"

namespace flexgraph {

NeighborUdf UniformSampledNeighborUdf(int fanout) {
  FLEX_CHECK_GE(fanout, 1);
  auto select = [fanout](const NeighborSelectionContext& ctx, VertexId root,
                         HdgBuilder& builder) {
    const auto nbrs = ctx.graph.OutNeighbors(root);
    if (nbrs.empty()) {
      return;
    }
    if (static_cast<int>(nbrs.size()) <= fanout) {
      for (VertexId u : nbrs) {
        const VertexId leaf[1] = {u};
        builder.AddRecord(root, 0, leaf);
      }
      return;
    }
    // Floyd's algorithm: sample `fanout` distinct indices from [0, deg).
    std::vector<uint64_t> picked;
    picked.reserve(static_cast<std::size_t>(fanout));
    const uint64_t deg = nbrs.size();
    for (uint64_t j = deg - static_cast<uint64_t>(fanout); j < deg; ++j) {
      uint64_t t = ctx.rng.NextBounded(j + 1);
      if (std::find(picked.begin(), picked.end(), t) != picked.end()) {
        t = j;
      }
      picked.push_back(t);
    }
    for (uint64_t idx : picked) {
      const VertexId leaf[1] = {nbrs[idx]};
      builder.AddRecord(root, 0, leaf);
    }
  };
  // Floyd's loop draws once per pick; a root of degree ≤ fanout draws nothing.
  auto draws = [fanout](const CsrGraph& graph, VertexId root) -> uint64_t {
    const uint64_t deg = graph.OutDegree(root);
    return deg > static_cast<uint64_t>(fanout) ? static_cast<uint64_t>(fanout) : 0;
  };
  return NeighborUdf(select, draws);
}

NeighborUdf DegreeBiasedNeighborUdf(int fanout) {
  FLEX_CHECK_GE(fanout, 1);
  auto select = [fanout](const NeighborSelectionContext& ctx, VertexId root,
                         HdgBuilder& builder) {
    const auto nbrs = ctx.graph.OutNeighbors(root);
    if (nbrs.empty()) {
      return;
    }
    // Cumulative degree weights over the neighborhood, then `fanout` draws.
    std::vector<uint64_t> cumulative(nbrs.size());
    uint64_t acc = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      acc += ctx.graph.OutDegree(nbrs[i]) + 1;  // +1 keeps degree-0 reachable
      cumulative[i] = acc;
    }
    std::vector<VertexId> sampled;
    for (int k = 0; k < fanout; ++k) {
      const uint64_t r = ctx.rng.NextBounded(acc);
      const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), r);
      sampled.push_back(nbrs[static_cast<std::size_t>(it - cumulative.begin())]);
    }
    std::sort(sampled.begin(), sampled.end());
    sampled.erase(std::unique(sampled.begin(), sampled.end()), sampled.end());
    for (VertexId u : sampled) {
      const VertexId leaf[1] = {u};
      builder.AddRecord(root, 0, leaf);
    }
  };
  auto draws = [fanout](const CsrGraph& graph, VertexId root) -> uint64_t {
    return graph.OutDegree(root) > 0 ? static_cast<uint64_t>(fanout) : 0;
  };
  return NeighborUdf(select, draws);
}

}  // namespace flexgraph
