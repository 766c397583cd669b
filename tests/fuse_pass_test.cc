// FusePass, with counting sorts and one sort per first-leaf bucket, builds
// the FusionDraft the four-sort miner it replaced built: the same
// candidates, greedy order, budget cut and partial ids, so every fused float
// is added in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/core/neighbor_selection.h"
#include "src/data/datasets.h"
#include "src/exec/chunks.h"
#include "src/exec/passes/pass.h"
#include "src/models/gcn.h"
#include "src/models/jknet.h"
#include "src/models/magnn.h"
#include "src/models/pinsage.h"
#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace flexgraph {
namespace {

// The four-sort miner, spelled out as it was written: std::sort of the
// segments by leaf list, the LCP-interval walk, parents from a sort by span,
// the greedy over a sort by (len, lo, hi), partial ids from a sort by
// (level, lo, len), and a deepest-wins paint of each partial's positions.
// Returns the draft it builds (empty when it fuses nothing) and its
// candidate count.
struct SpelledOutResult {
  bool fused = false;
  FusionDraft fusion;
  int64_t candidates = 0;
};

SpelledOutResult SpelledOutMiner(const LevelDraft& bottom, const PassContext& ctx) {
  SpelledOutResult result;
  const std::vector<uint64_t>& offs = bottom.offsets;
  const std::vector<uint32_t>& refs = bottom.leaf_ids;
  const int64_t num_segments = bottom.num_segments;
  if (num_segments <= 1 || refs.size() < 4 || ctx.bottom_stats.fusable_segments < 2) {
    return result;
  }
  struct TrieNode {
    int64_t len = 0;
    int64_t lo = 0;
    int64_t hi = 0;
    int32_t parent = -1;
    int32_t level = -1;
    int64_t mat_len = 0;
    int32_t mat_node = -1;
    int32_t partial_id = -1;
  };
  std::vector<uint32_t> order;
  for (int64_t s = 0; s < num_segments; ++s) {
    if (offs[static_cast<std::size_t>(s) + 1] - offs[static_cast<std::size_t>(s)] >= 2) {
      order.push_back(static_cast<uint32_t>(s));
    }
  }
  const auto seg_begin = [&](uint32_t s) { return offs[s]; };
  const auto seg_width = [&](uint32_t s) { return offs[static_cast<std::size_t>(s) + 1] - offs[s]; };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint64_t wa = seg_width(a);
    const uint64_t wb = seg_width(b);
    const uint64_t n = std::min(wa, wb);
    for (uint64_t i = 0; i < n; ++i) {
      const uint32_t ra = refs[seg_begin(a) + i];
      const uint32_t rb = refs[seg_begin(b) + i];
      if (ra != rb) {
        return ra < rb;
      }
    }
    if (wa != wb) {
      return wa < wb;
    }
    return a < b;
  });
  const auto n_sorted = static_cast<int64_t>(order.size());
  std::vector<int64_t> lcp(static_cast<std::size_t>(n_sorted), 0);
  for (int64_t i = 1; i < n_sorted; ++i) {
    const uint32_t a = order[static_cast<std::size_t>(i - 1)];
    const uint32_t b = order[static_cast<std::size_t>(i)];
    const uint64_t n = std::min(seg_width(a), seg_width(b));
    uint64_t l = 0;
    while (l < n && refs[seg_begin(a) + l] == refs[seg_begin(b) + l]) {
      ++l;
    }
    lcp[static_cast<std::size_t>(i)] = static_cast<int64_t>(l);
  }
  std::vector<TrieNode> nodes;
  {
    struct Open {
      int64_t len;
      int64_t lo;
    };
    std::vector<Open> stack;
    for (int64_t i = 1; i <= n_sorted; ++i) {
      const int64_t l = i < n_sorted ? lcp[static_cast<std::size_t>(i)] : 0;
      int64_t lb = i - 1;
      while (!stack.empty() && stack.back().len > l) {
        const Open top = stack.back();
        stack.pop_back();
        lb = top.lo;
        if (top.len >= 2) {
          TrieNode node;
          node.len = top.len;
          node.lo = top.lo;
          node.hi = i - 1;
          nodes.push_back(node);
        }
      }
      if (l >= 2 && (stack.empty() || stack.back().len < l)) {
        stack.push_back({l, lb});
      }
    }
  }
  if (nodes.empty()) {
    return result;
  }
  std::vector<int32_t> by_span(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    by_span[i] = static_cast<int32_t>(i);
  }
  const auto node_at = [&](int32_t i) -> TrieNode& { return nodes[static_cast<std::size_t>(i)]; };
  std::sort(by_span.begin(), by_span.end(), [&](int32_t a, int32_t b) {
    if (node_at(a).lo != node_at(b).lo) {
      return node_at(a).lo < node_at(b).lo;
    }
    if (node_at(a).hi != node_at(b).hi) {
      return node_at(a).hi > node_at(b).hi;
    }
    return node_at(a).len < node_at(b).len;
  });
  {
    std::vector<int32_t> containment;
    for (const int32_t idx : by_span) {
      while (!containment.empty() && node_at(containment.back()).hi < node_at(idx).hi) {
        containment.pop_back();
      }
      node_at(idx).parent = containment.empty() ? -1 : containment.back();
      containment.push_back(idx);
    }
  }
  std::vector<int32_t> by_len(by_span);
  std::sort(by_len.begin(), by_len.end(), [&](int32_t a, int32_t b) {
    if (node_at(a).len != node_at(b).len) {
      return node_at(a).len < node_at(b).len;
    }
    if (node_at(a).lo != node_at(b).lo) {
      return node_at(a).lo < node_at(b).lo;
    }
    return node_at(a).hi < node_at(b).hi;
  });
  std::vector<int32_t> selected;
  int32_t max_level = -1;
  for (const int32_t idx : by_len) {
    TrieNode& node = node_at(idx);
    const TrieNode* par = node.parent >= 0 ? &node_at(node.parent) : nullptr;
    const int64_t plen = par != nullptr ? par->mat_len : 0;
    const int32_t pnode = par != nullptr ? par->mat_node : -1;
    node.mat_len = plen;
    node.mat_node = pnode;
    if (static_cast<int64_t>(selected.size()) >= ctx.fuse_budget) {
      continue;
    }
    const int64_t consumers = node.hi - node.lo + 1;
    const int64_t sigma = node.len - std::max<int64_t>(plen, 1);
    if ((consumers - 1) * sigma < 2) {
      continue;
    }
    node.level = pnode >= 0 ? node_at(pnode).level + 1 : 0;
    node.mat_len = node.len;
    node.mat_node = idx;
    max_level = std::max(max_level, node.level);
    selected.push_back(idx);
  }
  if (selected.empty()) {
    return result;
  }
  const int64_t base_rows = bottom.src_rows;
  const auto num_partials = static_cast<int64_t>(selected.size());
  if (static_cast<uint64_t>(base_rows) + static_cast<uint64_t>(num_partials) >
      std::numeric_limits<uint32_t>::max()) {
    return result;
  }
  std::sort(selected.begin(), selected.end(), [&](int32_t a, int32_t b) {
    if (node_at(a).level != node_at(b).level) {
      return node_at(a).level < node_at(b).level;
    }
    if (node_at(a).lo != node_at(b).lo) {
      return node_at(a).lo < node_at(b).lo;
    }
    return node_at(a).len < node_at(b).len;
  });
  for (std::size_t p = 0; p < selected.size(); ++p) {
    node_at(selected[p]).partial_id = static_cast<int32_t>(p);
  }
  FusionDraft& fusion = result.fusion;
  fusion.base_rows = base_rows;
  fusion.num_partials = num_partials;
  fusion.partial_offsets.assign(1, 0);
  for (const int32_t idx : selected) {
    const TrieNode& node = node_at(idx);
    const uint64_t base = seg_begin(order[static_cast<std::size_t>(node.lo)]);
    const TrieNode* anc = node.parent >= 0 ? &node_at(node.parent) : nullptr;
    const int64_t plen = anc != nullptr ? anc->mat_len : 0;
    if (plen > 0) {
      fusion.partial_ids.push_back(
          static_cast<uint32_t>(base_rows + node_at(anc->mat_node).partial_id));
    }
    for (int64_t i = plen; i < node.len; ++i) {
      fusion.partial_ids.push_back(refs[base + static_cast<uint64_t>(i)]);
    }
    fusion.partial_offsets.push_back(fusion.partial_ids.size());
  }
  for (int32_t level = 0; level <= max_level; ++level) {
    int64_t end = 0;
    for (const int32_t idx : selected) {
      if (node_at(idx).level <= level) {
        ++end;
      }
    }
    fusion.level_ends.push_back(end);
  }
  {
    int64_t start = 0;
    for (const int64_t end : fusion.level_ends) {
      const std::span<const uint64_t> sub(fusion.partial_offsets.data() + start,
                                          static_cast<std::size_t>(end - start) + 1);
      std::vector<int64_t> chunks = MakeSegmentChunks(sub, kPlanChunkTarget);
      for (int64_t& c : chunks) {
        c += start;
      }
      fusion.level_chunks.push_back(std::move(chunks));
      start = end;
    }
  }
  std::vector<int32_t> best(static_cast<std::size_t>(n_sorted), -1);
  for (const int32_t idx : by_len) {
    if (node_at(idx).partial_id < 0) {
      continue;
    }
    for (int64_t p = node_at(idx).lo; p <= node_at(idx).hi; ++p) {
      best[static_cast<std::size_t>(p)] = idx;
    }
  }
  std::vector<int32_t> best_of_segment(static_cast<std::size_t>(num_segments), -1);
  for (int64_t p = 0; p < n_sorted; ++p) {
    best_of_segment[order[static_cast<std::size_t>(p)]] = best[static_cast<std::size_t>(p)];
  }
  fusion.offsets.assign(1, 0);
  for (int64_t s = 0; s < num_segments; ++s) {
    const uint64_t lo = offs[static_cast<std::size_t>(s)];
    const uint64_t hi = offs[static_cast<std::size_t>(s) + 1];
    const int32_t node_idx = best_of_segment[static_cast<std::size_t>(s)];
    uint64_t skip = 0;
    if (node_idx >= 0) {
      fusion.ids.push_back(static_cast<uint32_t>(base_rows + node_at(node_idx).partial_id));
      skip = static_cast<uint64_t>(node_at(node_idx).len);
    }
    for (uint64_t e = lo + skip; e < hi; ++e) {
      fusion.ids.push_back(refs[e]);
    }
    fusion.offsets.push_back(fusion.ids.size());
  }
  fusion.chunks = MakeSegmentChunks(fusion.offsets, kPlanChunkTarget);
  fusion.leaf_refs_before = refs.size();
  fusion.leaf_refs_after = fusion.ids.size() + fusion.partial_ids.size();
  if (fusion.leaf_refs_after >= fusion.leaf_refs_before) {
    result.fusion = FusionDraft();
    return result;
  }
  const int64_t src_rows = base_rows + num_partials;
  std::vector<uint64_t> src_offsets(static_cast<std::size_t>(src_rows) + 1, 0);
  for (const uint32_t v : fusion.ids) {
    ++src_offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 1; v < src_offsets.size(); ++v) {
    src_offsets[v] += src_offsets[v - 1];
  }
  std::vector<uint32_t> src_edge_segments(fusion.ids.size());
  std::vector<uint64_t> cursor(src_offsets.begin(), src_offsets.end() - 1);
  for (int64_t s = 0; s < num_segments; ++s) {
    for (uint64_t e = fusion.offsets[static_cast<std::size_t>(s)];
         e < fusion.offsets[static_cast<std::size_t>(s) + 1]; ++e) {
      src_edge_segments[cursor[fusion.ids[e]]++] = static_cast<uint32_t>(s);
    }
  }
  fusion.src_rows = src_rows;
  fusion.src_chunks = MakeSegmentChunks(src_offsets, kPlanChunkTarget);
  fusion.src_offsets = std::move(src_offsets);
  fusion.src_edge_segments = std::move(src_edge_segments);
  result.fused = true;
  result.candidates = static_cast<int64_t>(nodes.size());
  return result;
}

int64_t CandidateCounter() {
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  const auto it = snap.counters.find("plan.fuse_candidates");
  return it != snap.counters.end() ? it->second : 0;
}

// Runs FusePass and the spelled-out miner on one bottom level under one
// budget and compares every FusionDraft field and the candidate count.
void ExpectSameDraft(const LevelDraft& bottom, PassContext ctx, int64_t budget,
                     const std::string& label) {
  if (budget > 0) {
    ctx.fuse_budget = budget;
  }
  const SpelledOutResult want = SpelledOutMiner(bottom, ctx);
  PlanDraft draft;
  draft.strategy = ExecStrategy::kHybrid;
  draft.bottom = bottom;
  const int64_t candidates_before = CandidateCounter();
  FusePass(draft, PlanOptions{}, ctx);
  const FusionDraft& got = draft.fusion;
  SCOPED_TRACE(label + " budget " + std::to_string(ctx.fuse_budget));
  ASSERT_EQ(draft.has_fusion, want.fused);
  EXPECT_EQ(CandidateCounter() - candidates_before, want.candidates);
  const FusionDraft& w = want.fusion;
  EXPECT_EQ(got.base_rows, w.base_rows);
  EXPECT_EQ(got.num_partials, w.num_partials);
  EXPECT_EQ(got.partial_offsets, w.partial_offsets);
  EXPECT_EQ(got.partial_ids, w.partial_ids);
  EXPECT_EQ(got.level_ends, w.level_ends);
  EXPECT_EQ(got.level_chunks, w.level_chunks);
  EXPECT_EQ(got.offsets, w.offsets);
  EXPECT_EQ(got.ids, w.ids);
  EXPECT_EQ(got.chunks, w.chunks);
  EXPECT_EQ(got.src_offsets, w.src_offsets);
  EXPECT_EQ(got.src_edge_segments, w.src_edge_segments);
  EXPECT_EQ(got.src_chunks, w.src_chunks);
  EXPECT_EQ(got.src_rows, w.src_rows);
  EXPECT_EQ(got.leaf_refs_before, w.leaf_refs_before);
  EXPECT_EQ(got.leaf_refs_after, w.leaf_refs_after);
}

// The analyze and lower passes' view of one bottom level.
LevelDraft LowerBottom(const Hdg& hdg, PassContext& ctx) {
  AnalyzePass(hdg, ctx);
  PlanDraft draft;
  draft.strategy = ExecStrategy::kHybrid;
  draft.flat = hdg.flat();
  LowerPass(draft, hdg);
  return std::move(draft.bottom);
}

// A bottom level of `roots` segments, widths 1-7, drawn to share prefixes:
// each segment extends a prefix of a few templates over a small universe,
// or repeats an earlier segment outright.
LevelDraft RandomBottom(Rng& rng, int64_t roots, PassContext& ctx) {
  const auto universe = static_cast<uint32_t>(2 + rng.NextBounded(40));
  std::vector<std::vector<uint32_t>> templates(1 + rng.NextBounded(6));
  for (auto& t : templates) {
    t.resize(7);
    for (uint32_t& v : t) {
      v = static_cast<uint32_t>(rng.NextBounded(universe));
    }
  }
  LevelDraft bottom;
  bottom.offsets.assign(1, 0);
  std::vector<std::vector<uint32_t>> segments;
  for (int64_t r = 0; r < roots; ++r) {
    std::vector<uint32_t> seg;
    if (!segments.empty() && rng.NextBounded(4) == 0) {
      seg = segments[rng.NextBounded(segments.size())];
    } else {
      const auto width = 1 + rng.NextBounded(7);
      const auto& t = templates[rng.NextBounded(templates.size())];
      const auto shared = rng.NextBounded(width + 1);
      seg.assign(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(shared));
      while (seg.size() < width) {
        seg.push_back(static_cast<uint32_t>(rng.NextBounded(universe)));
      }
    }
    bottom.leaf_ids.insert(bottom.leaf_ids.end(), seg.begin(), seg.end());
    bottom.offsets.push_back(bottom.leaf_ids.size());
    segments.push_back(std::move(seg));
  }
  bottom.num_segments = roots;
  bottom.input_rows = static_cast<int64_t>(bottom.leaf_ids.size());
  uint32_t max_id = 0;
  for (const uint32_t v : bottom.leaf_ids) {
    max_id = std::max(max_id, v);
  }
  bottom.src_rows = bottom.leaf_ids.empty() ? 0 : static_cast<int64_t>(max_id) + 1;
  ctx.bottom_stats = ComputeLeafStats(bottom.offsets, bottom.leaf_ids);
  ctx.fuse_budget = std::max<int64_t>(1024, static_cast<int64_t>(ctx.bottom_stats.fusable_segments) / 2);
  return bottom;
}

TEST(FusePassTest, MatchesSpelledOutMiner) {
  // Random levels: budgets 1, 2 and 5 bind inside a length level.
  Rng rng(20);
  for (int trial = 0; trial < 300; ++trial) {
    PassContext ctx;
    const LevelDraft bottom = RandomBottom(rng, 1 + static_cast<int64_t>(rng.NextBounded(300)), ctx);
    for (const int64_t budget : {int64_t{1}, int64_t{2}, int64_t{5}, int64_t{0}}) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectSameDraft(bottom, ctx, budget, "random trial " + std::to_string(trial)));
    }
  }

  // The shipped models' HDG shapes: MAGNN's metapath instances, GCN's
  // in-neighbor lists, PinSage's walk top-k over three epochs' draws, and
  // JK-Net's hop sets with their long shared prefixes.
  Rng model_rng(7);
  const Dataset reddit = MakeDatasetByName("reddit", 0.1, 7);
  const Dataset twitter = WithSyntheticVertexTypes(MakeDatasetByName("twitter", 0.1, 7), 3);
  std::vector<std::pair<std::string, Hdg>> hdgs;
  {
    Rng rng_m(1);
    hdgs.emplace_back("magnn",
                      BuildHdgAllVertices(MakeMagnnModel(MagnnConfig{}, model_rng), twitter.graph,
                                          rng_m));
  }
  {
    Rng rng_g(1);
    hdgs.emplace_back("gcn", BuildHdgAllVertices(MakeGcnModel(GcnConfig{}, model_rng),
                                                 reddit.graph, rng_g));
  }
  {
    const GnnModel pinsage = MakePinSageModel(PinSageConfig{}, model_rng);
    Rng rng_p(3);
    for (int epoch = 0; epoch < 3; ++epoch) {
      hdgs.emplace_back("pinsage epoch " + std::to_string(epoch),
                        BuildHdgAllVertices(pinsage, reddit.graph, rng_p));
    }
  }
  {
    JkNetConfig c;
    c.num_hops = 3;
    Rng rng_j(1);
    hdgs.emplace_back("jknet", BuildHdgAllVertices(MakeJkNetModel(c, model_rng),
                                                   MakeDatasetByName("twitter", 0.05, 7).graph,
                                                   rng_j));
  }
  for (const auto& [name, hdg] : hdgs) {
    PassContext ctx;
    const LevelDraft bottom = LowerBottom(hdg, ctx);
    for (const int64_t budget : {int64_t{1}, int64_t{2}, int64_t{5}, int64_t{0}}) {
      ASSERT_NO_FATAL_FAILURE(ExpectSameDraft(bottom, ctx, budget, name));
    }
  }
}

}  // namespace
}  // namespace flexgraph
