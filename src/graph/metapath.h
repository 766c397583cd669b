// Metapath instance matching for INHA models (MAGNN).
//
// A metapath is an ordered sequence of vertex types starting with the type of
// the root, e.g. MP = [Movie, Actor, Movie]. An instance for root v is a path
// (v = u0, u1, ..., uL) with TypeOf(u_i) == mp[i] for all i. Matching is a
// depth-first search over out-edges; the paper notes this is "clearly out of
// the reach of NN operations" and is where FlexGraph's graph engine earns its
// keep for INHA models.
#ifndef SRC_GRAPH_METAPATH_H_
#define SRC_GRAPH_METAPATH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/csr_graph.h"

namespace flexgraph {

struct Metapath {
  std::vector<VertexType> types;  // types[0] is the root's type

  std::size_t length() const { return types.empty() ? 0 : types.size() - 1; }
};

struct MetapathMatchOptions {
  // Upper bound on instances visited per (root, metapath); 0 = unlimited.
  // Real deployments cap this because hub vertices can match combinatorially
  // many paths.
  std::size_t max_instances_per_path = 0;
  // Disallow revisiting a vertex within one instance (simple paths only).
  bool simple_paths = true;
};

// Calls visit(metapath_index, instance) for each instance of each metapath
// in `metapaths` rooted at `root`: metapath by metapath, each in DFS order
// over out-neighbors, at most max_instances_per_path per metapath. The
// instance span holds the vertices root first; it is valid only during the
// call. A metapath whose types[0] is not the root's type matches nothing.
//
// The DFS runs on one path-and-cursor buffer per call, sized for the longest
// metapath, so matching allocates nothing per instance.
template <typename Visit>
void ForEachMetapathInstance(const CsrGraph& g, VertexId root, std::span<const Metapath> metapaths,
                             const MetapathMatchOptions& options, Visit&& visit) {
  std::size_t max_types = 0;
  for (const Metapath& mp : metapaths) {
    max_types = std::max(max_types, mp.types.size());
  }
  std::vector<VertexId> path(max_types);       // path[0..depth] chosen so far
  std::vector<std::size_t> cursor(max_types);  // next out-neighbor per depth
  for (std::size_t m = 0; m < metapaths.size(); ++m) {
    const std::vector<VertexType>& types = metapaths[m].types;
    if (types.empty() || g.TypeOf(root) != types[0]) {
      continue;
    }
    const std::size_t len = types.size() - 1;
    path[0] = root;
    if (len == 0) {
      visit(static_cast<uint32_t>(m), std::span<const VertexId>(path.data(), 1));
      continue;
    }
    std::size_t visited = 0;
    std::size_t depth = 0;
    cursor[0] = 0;
    bool capped = false;
    while (!capped) {
      const auto nbrs = g.OutNeighbors(path[depth]);
      bool descended = false;
      while (cursor[depth] < nbrs.size()) {
        const VertexId next = nbrs[cursor[depth]++];
        if (g.TypeOf(next) != types[depth + 1]) {
          continue;
        }
        if (options.simple_paths &&
            std::find(path.begin(), path.begin() + static_cast<std::ptrdiff_t>(depth) + 1,
                      next) != path.begin() + static_cast<std::ptrdiff_t>(depth) + 1) {
          continue;
        }
        path[depth + 1] = next;
        if (depth + 1 < len) {
          ++depth;
          cursor[depth] = 0;
          descended = true;
          break;
        }
        visit(static_cast<uint32_t>(m), std::span<const VertexId>(path.data(), len + 1));
        if (options.max_instances_per_path != 0 && ++visited >= options.max_instances_per_path) {
          capped = true;
          break;
        }
      }
      if (!descended && !capped) {
        if (depth == 0) {
          break;
        }
        --depth;
      }
    }
  }
}

}  // namespace flexgraph

#endif  // SRC_GRAPH_METAPATH_H_
