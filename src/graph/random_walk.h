// The importance-based neighborhood PinSage defines with random walks (paper
// §2.2: N(v) = top-k visited vertices over `num_traces` walks of `n_hops`
// from v).
#ifndef SRC_GRAPH_RANDOM_WALK_H_
#define SRC_GRAPH_RANDOM_WALK_H_

#include <vector>

#include "src/graph/csr_graph.h"
#include "src/util/rng.h"

namespace flexgraph {

struct VisitCount {
  VertexId vertex;
  uint32_t count;
};

// Runs num_walks uniform walks of up to `hops` steps from v (a walk ends early
// at a vertex with no out-edges), counts visits (excluding v itself), and
// returns the top_k most-visited vertices, most-visited first. Ties break
// toward the smaller vertex id so results are deterministic for a fixed rng.
// Each step takes one NextBounded draw, so a walk that meets no dead end
// takes `hops` draws. Safe to call concurrently with distinct rngs.
std::vector<VisitCount> TopKVisited(const CsrGraph& g, VertexId v, int num_walks, int hops,
                                    int top_k, Rng& rng);

}  // namespace flexgraph

#endif  // SRC_GRAPH_RANDOM_WALK_H_
