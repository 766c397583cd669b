// Tests for random walks (PinSage neighbor selection) and metapath matching
// (MAGNN neighbor selection).
#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/neighbor_selection.h"
#include "src/data/datasets.h"
#include "src/graph/metapath.h"
#include "src/graph/random_walk.h"
#include "src/models/magnn.h"

namespace flexgraph {
namespace {

CsrGraph MakeLineGraph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) {
    b.AddUndirectedEdge(v, v + 1);
  }
  return b.Build();
}

// TopKVisited as it was first written: a hash map of visit counts, sorted in
// full by (count desc, vertex asc), then truncated.
std::vector<VisitCount> HashMapTopKVisited(const CsrGraph& g, VertexId v, int num_walks,
                                           int hops, int top_k, Rng& rng) {
  std::unordered_map<VertexId, uint32_t> freq;
  for (int w = 0; w < num_walks; ++w) {
    VertexId cur = v;
    for (int h = 0; h < hops; ++h) {
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
  std::vector<VisitCount> counts;
  counts.reserve(freq.size());
  for (const auto& [vertex, count] : freq) {
    counts.push_back({vertex, count});
  }
  std::sort(counts.begin(), counts.end(), [](const VisitCount& a, const VisitCount& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    return a.vertex < b.vertex;
  });
  if (static_cast<int>(counts.size()) > top_k) {
    counts.resize(static_cast<std::size_t>(top_k));
  }
  return counts;
}

// Directed graph in which about `dead_fraction` of the vertices have no
// out-edges, so walks end early, some at their first step.
CsrGraph RandomGraphWithDeadEnds(VertexId n, double dead_fraction, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    if (rng.NextDouble() < dead_fraction) {
      continue;
    }
    const uint64_t degree = 1 + rng.NextBounded(4);
    for (uint64_t e = 0; e < degree; ++e) {
      b.AddEdge(v, static_cast<VertexId>(rng.NextBounded(n)));
    }
  }
  return b.Build();
}

TEST(TopKVisitedTest, MatchesHashMapReference) {
  int ties_at_cut = 0;
  int dead_end_roots = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const CsrGraph g = RandomGraphWithDeadEnds(40, 0.3, seed);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      dead_end_roots += g.OutDegree(v) == 0 ? 1 : 0;
      for (int top_k : {0, 1, 3, 10, 1000}) {
        Rng got_rng(seed * 1000 + v);
        Rng want_rng = got_rng;
        const auto got = TopKVisited(g, v, 10, 3, top_k, got_rng);
        const auto want = HashMapTopKVisited(g, v, 10, 3, top_k, want_rng);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " root " << v << " k " << top_k;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].vertex, want[i].vertex) << "seed " << seed << " root " << v;
          EXPECT_EQ(got[i].count, want[i].count) << "seed " << seed << " root " << v;
        }
        EXPECT_TRUE(got_rng == want_rng) << "seed " << seed << " root " << v;
        if (top_k == 3) {
          Rng full_rng(seed * 1000 + v);
          const auto full = HashMapTopKVisited(g, v, 10, 3, 1000, full_rng);
          ties_at_cut += full.size() > 3 && full[2].count == full[3].count ? 1 : 0;
        }
      }
    }
  }
  // The inputs exercise what the order must settle: equal counts across the
  // top-k cut, and roots whose walks cannot start.
  EXPECT_GT(ties_at_cut, 0);
  EXPECT_GT(dead_end_roots, 0);
}

TEST(TopKVisitedTest, DeadEndTruncatesWalks) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);  // directed: 1 has no out-edges
  const CsrGraph g = b.Build();
  Rng rng(2);
  Rng expected_end = rng;
  expected_end.Discard(3);  // each of the 3 walks takes one step, then stops
  const auto top = TopKVisited(g, 0, 3, 5, 10, rng);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].vertex, 1u);
  EXPECT_EQ(top[0].count, 3u);
  EXPECT_TRUE(rng == expected_end);
}

TEST(TopKVisitedTest, ExcludesStartAndBoundsK) {
  CsrGraph g = MakeLineGraph(20);
  Rng rng(3);
  auto top = TopKVisited(g, 10, 20, 3, 5, rng);
  EXPECT_LE(top.size(), 5u);
  for (const auto& vc : top) {
    EXPECT_NE(vc.vertex, 10u);
    EXPECT_GT(vc.count, 0u);
  }
  // Sorted by count descending.
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].count, top[i].count);
  }
}

TEST(TopKVisitedTest, StarGraphNeighborsDominate) {
  // Star: center 0 connected to 1..9. Walks from 0 must visit spokes.
  GraphBuilder b(10);
  for (VertexId v = 1; v < 10; ++v) {
    b.AddUndirectedEdge(0, v);
  }
  CsrGraph g = b.Build();
  Rng rng(4);
  auto top = TopKVisited(g, 0, 50, 2, 3, rng);
  ASSERT_EQ(top.size(), 3u);
  for (const auto& vc : top) {
    EXPECT_GE(vc.vertex, 1u);
  }
}

// The instances ForEachMetapathInstance visits, in visit order.
using TaggedInstances = std::vector<std::pair<uint32_t, std::vector<VertexId>>>;

TaggedInstances Visited(const CsrGraph& g, VertexId root, const std::vector<Metapath>& mps,
                        const MetapathMatchOptions& options = {}) {
  TaggedInstances out;
  ForEachMetapathInstance(g, root, mps, options,
                          [&](uint32_t metapath_index, std::span<const VertexId> instance) {
                            out.emplace_back(metapath_index, std::vector<VertexId>(
                                                                 instance.begin(), instance.end()));
                          });
  return out;
}

// One metapath's instances, untagged.
std::vector<std::vector<VertexId>> Instances(const CsrGraph& g, VertexId root, const Metapath& mp,
                                             const MetapathMatchOptions& options = {}) {
  std::vector<std::vector<VertexId>> out;
  for (auto& [index, instance] : Visited(g, root, {mp}, options)) {
    out.push_back(std::move(instance));
  }
  return out;
}

// The list-returning matcher ForEachMetapathInstance replaced, spelled out:
// an iterative DFS per metapath that copies each instance into a new list,
// then a second list tagging every instance with its metapath.
std::vector<std::vector<VertexId>> SpelledOutMatchOne(const CsrGraph& g, VertexId root,
                                                      const Metapath& mp,
                                                      const MetapathMatchOptions& options) {
  std::vector<std::vector<VertexId>> instances;
  if (mp.types.empty() || g.TypeOf(root) != mp.types[0]) {
    return instances;
  }
  if (mp.length() == 0) {
    instances.push_back({root});
    return instances;
  }
  struct Frame {
    VertexId vertex;
    std::size_t cursor;
  };
  std::vector<Frame> stack;
  std::vector<VertexId> path{root};
  stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const std::size_t depth = stack.size() - 1;
    const auto nbrs = g.OutNeighbors(frame.vertex);
    bool descended = false;
    while (frame.cursor < nbrs.size()) {
      const VertexId next = nbrs[frame.cursor++];
      if (g.TypeOf(next) != mp.types[depth + 1]) {
        continue;
      }
      if (options.simple_paths && std::find(path.begin(), path.end(), next) != path.end()) {
        continue;
      }
      if (depth + 1 == mp.length()) {
        path.push_back(next);
        instances.push_back(path);
        path.pop_back();
        if (options.max_instances_per_path != 0 &&
            instances.size() >= options.max_instances_per_path) {
          return instances;
        }
      } else {
        path.push_back(next);
        stack.push_back({next, 0});
        descended = true;
        break;
      }
    }
    if (!descended && frame.cursor >= nbrs.size()) {
      stack.pop_back();
      path.pop_back();
    }
  }
  return instances;
}

TaggedInstances SpelledOutMatchAll(const CsrGraph& g, VertexId root,
                                   const std::vector<Metapath>& mps,
                                   const MetapathMatchOptions& options) {
  TaggedInstances all;
  for (uint32_t i = 0; i < mps.size(); ++i) {
    for (auto& instance : SpelledOutMatchOne(g, root, mps[i], options)) {
      all.emplace_back(i, std::move(instance));
    }
  }
  return all;
}

CsrGraph MakePaperHeteroGraph() {
  // Figure 2a with 3 vertex types by color:
  //   green:  A(0), G(6)        → type 0
  //   purple: D(3), E(4), C(2), I(8) → type 1
  //   orange: B(1), F(5), H(7)  → type 2
  GraphBuilder b(9, 3);
  const VertexType types[9] = {0, 2, 1, 1, 1, 2, 0, 2, 1};
  for (VertexId v = 0; v < 9; ++v) {
    b.SetVertexType(v, types[v]);
  }
  b.AddUndirectedEdge(0, 3);
  b.AddUndirectedEdge(0, 4);
  b.AddUndirectedEdge(0, 5);
  b.AddUndirectedEdge(0, 7);
  b.AddUndirectedEdge(1, 4);
  b.AddUndirectedEdge(1, 2);
  b.AddUndirectedEdge(2, 3);
  b.AddUndirectedEdge(5, 6);
  b.AddUndirectedEdge(6, 7);
  b.AddUndirectedEdge(7, 8);
  return b.Build();
}

TEST(MetapathTest, PaperFigure2Instances) {
  // MP1 = green-purple-purple (A→{D,E}→…), MP2 = green-orange-{green|purple}.
  CsrGraph g = MakePaperHeteroGraph();
  // MP: [0, 1, 1] rooted at A(0): A-D-C (D's purple neighbor C). A-E? E's
  // purple neighbors: none (E connects A and B). → expect exactly {A,D,C}.
  Metapath mp{{0, 1, 1}};
  auto instances = Instances(g, 0, mp);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0], (std::vector<VertexId>{0, 3, 2}));
}

TEST(MetapathTest, TypeMismatchAtRootYieldsNothing) {
  CsrGraph g = MakePaperHeteroGraph();
  Metapath mp{{1, 0, 1}};
  EXPECT_TRUE(Instances(g, 0, mp).empty());  // A is type 0, not 1
}

TEST(MetapathTest, SimplePathsExcludeRevisits) {
  // Triangle of alternating types would revisit without the simple-path rule.
  GraphBuilder b(2, 2);
  b.SetVertexType(0, 0);
  b.SetVertexType(1, 1);
  b.AddUndirectedEdge(0, 1);
  CsrGraph g = b.Build();
  Metapath mp{{0, 1, 0}};  // would need to return to 0
  EXPECT_TRUE(Instances(g, 0, mp).empty());
}

TEST(MetapathTest, NonSimpleAllowsRevisits) {
  GraphBuilder b(2, 2);
  b.SetVertexType(0, 0);
  b.SetVertexType(1, 1);
  b.AddUndirectedEdge(0, 1);
  CsrGraph g = b.Build();
  Metapath mp{{0, 1, 0}};
  MetapathMatchOptions options;
  options.simple_paths = false;
  auto instances = Instances(g, 0, mp, options);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0], (std::vector<VertexId>{0, 1, 0}));
}

TEST(MetapathTest, MaxInstancesCap) {
  // Star with many leaves of the same type → cap limits the fan-out.
  GraphBuilder b(21, 2);
  b.SetVertexType(0, 0);
  for (VertexId v = 1; v <= 20; ++v) {
    b.SetVertexType(v, 1);
    b.AddUndirectedEdge(0, v);
  }
  CsrGraph g = b.Build();
  Metapath mp{{0, 1}};
  MetapathMatchOptions options;
  options.max_instances_per_path = 5;
  EXPECT_EQ(Instances(g, 0, mp, options).size(), 5u);
}

TEST(MetapathTest, AllInstancesTaggedByIndex) {
  CsrGraph g = MakePaperHeteroGraph();
  std::vector<Metapath> mps = {Metapath{{0, 1, 1}}, Metapath{{0, 2, 0}}};
  bool saw0 = false;
  bool saw1 = false;
  for (const auto& [metapath_index, vertices] : Visited(g, 0, mps)) {
    EXPECT_EQ(vertices.front(), 0u);
    EXPECT_EQ(vertices.size(), 3u);
    saw0 = saw0 || metapath_index == 0;
    saw1 = saw1 || metapath_index == 1;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);  // A-F-G and A-H-G match [0,2,0]
}

// Random typed graphs with self-loops and parallel edges, unsorted neighbor
// lists, metapaths of length 0-3 (some rooted at a type the root lacks):
// the visitor sees the spelled-out matcher's instances, in its order.
TEST(MetapathTest, VisitorMatchesSpelledOutMatcher) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<VertexId>(2 + rng.NextBounded(30));
    const int num_types = 1 + static_cast<int>(rng.NextBounded(3));
    GraphBuilder b(n, num_types);
    for (VertexId v = 0; num_types > 1 && v < n; ++v) {
      b.SetVertexType(v, static_cast<VertexType>(rng.NextBounded(num_types)));
    }
    const uint64_t num_edges = rng.NextBounded(6 * n);
    for (uint64_t e = 0; e < num_edges; ++e) {
      const auto u = static_cast<VertexId>(rng.NextBounded(n));
      const auto v = rng.NextBounded(8) == 0 ? u : static_cast<VertexId>(rng.NextBounded(n));
      b.AddEdge(u, v);
    }
    GraphBuilder::Options build;
    build.sort_neighbors = trial % 2 == 0;
    const CsrGraph g = b.Build(build);
    std::vector<Metapath> mps(1 + rng.NextBounded(4));
    for (Metapath& mp : mps) {
      mp.types.resize(1 + rng.NextBounded(4));
      for (VertexType& t : mp.types) {
        t = static_cast<VertexType>(rng.NextBounded(num_types));
      }
    }
    for (const std::size_t cap : {0, 1, 3, 32}) {
      for (const bool simple : {true, false}) {
        MetapathMatchOptions options;
        options.max_instances_per_path = cap;
        options.simple_paths = simple;
        for (VertexId root = 0; root < n; ++root) {
          ASSERT_EQ(Visited(g, root, mps, options), SpelledOutMatchAll(g, root, mps, options))
              << "trial " << trial << " root " << root << " cap " << cap << " simple "
              << simple;
        }
      }
    }
  }
}

// MAGNN's NeighborSelection drives the visitor straight into the builder; its
// HDG at scale 0.1 is the one the spelled-out matcher's instance lists build.
TEST(MetapathTest, MagnnHdgMatchesSpelledOutMatcher) {
  const Dataset ds = WithSyntheticVertexTypes(MakeDatasetByName("twitter", 0.1, 7), 3);
  Rng model_rng(7);
  const GnnModel model = MakeMagnnModel(MagnnConfig{}, model_rng);
  GnnModel reference;
  reference.schema = model.schema;
  reference.cache_policy = model.cache_policy;
  const std::vector<Metapath> mps = DefaultMetapaths3Type();
  reference.neighbor_udf = [&mps](const NeighborSelectionContext& ctx, VertexId root,
                                  HdgBuilder& builder) {
    MetapathMatchOptions options;
    options.max_instances_per_path = MagnnConfig{}.max_instances_per_path;
    for (const auto& [index, instance] : SpelledOutMatchAll(ctx.graph, root, mps, options)) {
      builder.AddRecord(root, index, instance);
    }
  };
  Rng rng_a(1);
  Rng rng_b(1);
  const Hdg got = BuildHdgAllVertices(model, ds.graph, rng_a);
  const Hdg want = BuildHdgAllVertices(reference, ds.graph, rng_b);
  ASSERT_GT(want.num_instances(), 0u);
  EXPECT_EQ(got.flat(), want.flat());
  EXPECT_TRUE(std::ranges::equal(got.roots(), want.roots()));
  EXPECT_TRUE(std::ranges::equal(got.slot_offsets(), want.slot_offsets()));
  EXPECT_TRUE(std::ranges::equal(got.instance_leaf_offsets(), want.instance_leaf_offsets()));
  EXPECT_TRUE(std::ranges::equal(got.leaf_vertex_ids(), want.leaf_vertex_ids()));
}

}  // namespace
}  // namespace flexgraph
