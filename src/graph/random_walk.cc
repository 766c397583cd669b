#include "src/graph/random_walk.h"

#include <algorithm>

namespace flexgraph {

std::vector<VisitCount> TopKVisited(const CsrGraph& g, VertexId v, int num_walks, int hops,
                                    int top_k, Rng& rng) {
  // Scratch reused across calls on a thread, so a call allocates only its
  // result: the visits (at most num_walks × hops) and their runs.
  thread_local std::vector<VertexId> visits;
  thread_local std::vector<VisitCount> runs;
  visits.clear();
  for (int w = 0; w < num_walks; ++w) {
    VertexId cur = v;
    for (int h = 0; h < hops; ++h) {
      const auto nbrs = g.OutNeighbors(cur);
      if (nbrs.empty()) {
        break;
      }
      cur = nbrs[rng.NextBounded(nbrs.size())];
      if (cur != v) {
        visits.push_back(cur);
      }
    }
  }
  // Sorted visits run-length count into (vertex, count) runs.
  std::sort(visits.begin(), visits.end());
  runs.clear();
  for (VertexId u : visits) {
    if (!runs.empty() && runs.back().vertex == u) {
      ++runs.back().count;
    } else {
      runs.push_back({u, 1});
    }
  }
  const std::size_t k = std::min(runs.size(), static_cast<std::size_t>(std::max(top_k, 0)));
  const auto top = runs.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(runs.begin(), top, runs.end(), [](const VisitCount& a, const VisitCount& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.vertex < b.vertex;
  });
  return {runs.begin(), top};
}

}  // namespace flexgraph
