// FusePass — HAG-style common-subtree fusion (Jia et al., "Redundancy-Free
// Computation Graphs for GNNs"), restricted to shared *prefixes* of the
// bottom level's per-segment leaf lists.
//
// Why prefixes only: the segment-reduce kernel left-folds each segment's
// refs in list order into a zeroed accumulator. Materializing an arbitrary
// shared subset would reassociate the float sum and change low bits; a
// shared prefix, seeded first into the fold, reproduces the unfused bit
// pattern exactly (a zero-initialized left-fold never yields -0.0, so
// 0 + prefix_value == the prefix's own fold result bitwise). The fused
// forward is therefore bitwise identical to the unfused one — across
// strategies, thread counts, ISA levels, and both distributed backends —
// which is the correctness bar the whole pass rests on.
//
// Mining: sort segments lexicographically by leaf list, compute adjacent
// LCPs, and enumerate the LCP-interval tree — exactly the branching nodes of
// the prefix trie, each node a (prefix length, consumer count) candidate.
// Candidates are visited shallowest-first under a budget; one is materialized
// when the net ref saving is positive:
//
//   sigma = len - max(materialized ancestor len, 1)   refs saved per consumer
//   build = sigma + 1                                 refs to build the partial
//   net   = (consumers - 1) * sigma - 1               > 0 → materialize
//
// Chained prefixes build on their nearest materialized ancestor (one partial
// ref + the extension), giving the multi-level partial program executed
// level-by-level before the rewritten root reduce.
//
// Only the segment sort compares lists (DESIGN.md §16): segments are bucketed
// by first leaf and each bucket is sorted from leaf 1 on; the interval walk
// links each node to its parent; and every node order is a pair of stable
// counting sorts on bounded integer keys.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "src/exec/chunks.h"
#include "src/exec/passes/pass.h"
#include "src/obs/metrics.h"

namespace flexgraph {
namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

// One branching node of the prefix trie: the first `len` refs of sorted
// position `lo`'s segment, shared by sorted positions [lo, hi]. Node ids
// follow the order in which the interval walk opens the nodes.
struct TrieNode {
  uint32_t len = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint32_t parent = kNone;      // smallest strictly containing node
  uint32_t mat = kNone;         // nearest materialized ancestor-or-self
  uint32_t level = kNone;       // partial dependency level when materialized
  uint32_t partial_id = kNone;  // assigned when materialized
};

// Stable counting sort of `items` by key(item), a key in [0, range).
template <typename Key>
std::vector<uint32_t> StableSortByKey(std::span<const uint32_t> items, std::size_t range,
                                      Key key) {
  std::vector<uint32_t> start(range + 1, 0);
  for (const uint32_t item : items) {
    ++start[static_cast<std::size_t>(key(item)) + 1];
  }
  for (std::size_t k = 1; k <= range; ++k) {
    start[k] += start[k - 1];
  }
  std::vector<uint32_t> sorted(items.size());
  for (const uint32_t item : items) {
    sorted[start[key(item)]++] = item;
  }
  return sorted;
}

}  // namespace

void FusePass(PlanDraft& draft, const PlanOptions& options, const PassContext& ctx) {
  if (!options.fuse || draft.strategy == ExecStrategy::kSparse) {
    return;
  }
  const LevelDraft& bottom = draft.bottom;
  const std::vector<uint64_t>& offs = bottom.offsets;
  const std::vector<uint32_t>& refs = bottom.leaf_ids;
  const int64_t num_segments = bottom.num_segments;
  if (num_segments <= 1 || refs.size() < 4 || ctx.bottom_stats.fusable_segments < 2 ||
      refs.size() >= kNone) {
    return;  // positions and LCPs below are u32
  }
  const auto seg_begin = [&](uint32_t s) { return offs[s]; };
  const auto seg_width = [&](uint32_t s) {
    return offs[static_cast<std::size_t>(s) + 1] - offs[s];
  };

  // ---- Sort fusable segments (width >= 2) lexicographically by leaf list ----
  // A stable counting sort by first leaf, then a comparator sort of each
  // bucket from leaf 1 on. Ties between identical lists break on segment
  // index, so the order is the unique one a whole-list sort would give.
  std::vector<uint32_t> order;
  {
    std::vector<uint32_t> fusable;
    fusable.reserve(static_cast<std::size_t>(ctx.bottom_stats.fusable_segments));
    for (int64_t s = 0; s < num_segments; ++s) {
      if (seg_width(static_cast<uint32_t>(s)) >= 2) {
        fusable.push_back(static_cast<uint32_t>(s));
      }
    }
    order = StableSortByKey(fusable, static_cast<std::size_t>(bottom.src_rows),
                            [&](uint32_t s) { return refs[seg_begin(s)]; });
  }
  const auto n_sorted = static_cast<uint32_t>(order.size());
  const auto tail_less = [&](uint32_t a, uint32_t b) {
    const uint64_t wa = seg_width(a);
    const uint64_t wb = seg_width(b);
    const uint32_t* ra = refs.data() + seg_begin(a);
    const uint32_t* rb = refs.data() + seg_begin(b);
    for (uint64_t i = 1; i < std::min(wa, wb); ++i) {
      if (ra[i] != rb[i]) {
        return ra[i] < rb[i];
      }
    }
    return wa != wb ? wa < wb : a < b;
  };
  for (uint32_t lo = 0; lo < n_sorted;) {
    const uint32_t first = refs[seg_begin(order[lo])];
    uint32_t hi = lo + 1;
    while (hi < n_sorted && refs[seg_begin(order[hi])] == first) {
      ++hi;
    }
    std::sort(order.begin() + lo, order.begin() + hi, tail_less);
    lo = hi;
  }

  // ---- Adjacent LCPs ----
  std::vector<uint32_t> lcp(n_sorted, 0);  // lcp[p]: LCP(order[p-1], order[p])
  for (uint32_t p = 1; p < n_sorted; ++p) {
    const uint32_t a = order[p - 1];
    const uint32_t b = order[p];
    const uint64_t n = std::min(seg_width(a), seg_width(b));
    uint32_t l = 0;
    while (l < n && refs[seg_begin(a) + l] == refs[seg_begin(b) + l]) {
      ++l;
    }
    lcp[p] = l;
  }

  // ---- Enumerate the LCP-interval tree (the prefix trie's branching nodes) ----
  // A stack walk opens a node when an LCP of at least 2 first exceeds the
  // open ones and closes it once the LCP drops below its len. A closing
  // node's parent, its smallest strictly containing node, is the open node
  // below it when that one's len still reaches the current LCP (it closes
  // next or extends), and otherwise the node this step opens. The walk also
  // records the deepest node containing each sorted position: the first one
  // the next step closes, else the innermost open one.
  std::vector<TrieNode> nodes;
  std::vector<uint32_t>& deepest = lcp;  // step i reads lcp[i], then writes deepest[i - 1]
  {
    std::vector<uint32_t> open;  // node ids, len strictly increasing toward the top
    const auto top_len = [&] { return nodes[open.back()].len; };
    for (uint32_t i = 1; i <= n_sorted; ++i) {
      const uint32_t l = i < n_sorted ? lcp[i] : 0;
      uint32_t lb = i - 1;
      uint32_t first_closed = kNone;
      uint32_t last_closed = kNone;
      while (!open.empty() && top_len() > l) {
        const uint32_t id = open.back();
        open.pop_back();
        TrieNode& node = nodes[id];
        lb = node.lo;
        node.hi = i - 1;
        node.parent = !open.empty() && top_len() >= l ? open.back() : kNone;
        first_closed = first_closed == kNone ? id : first_closed;
        last_closed = id;
      }
      if (l >= 2 && (open.empty() || top_len() < l)) {
        const auto id = static_cast<uint32_t>(nodes.size());
        nodes.push_back(TrieNode{.len = l, .lo = lb});
        open.push_back(id);
        if (last_closed != kNone) {
          nodes[last_closed].parent = id;
        }
      }
      deepest[i - 1] = first_closed != kNone ? first_closed : (open.empty() ? kNone : open.back());
    }
  }
  if (nodes.empty()) {
    return;
  }

  // ---- Shallowest-first greedy selection under the budget ----
  // Visiting by ascending prefix length guarantees parents are decided before
  // children (a parent's len is strictly smaller), so the nearest
  // materialized ancestor is already known. Nodes of one len are disjoint, so
  // (len, lo) names a node: stable counting sorts by lo, then by len, give
  // the (len, lo, hi) order.
  std::vector<uint32_t> selected;
  uint32_t max_level = 0;
  {
    std::vector<uint32_t> ids(nodes.size());
    std::iota(ids.begin(), ids.end(), 0U);
    uint32_t max_len = 0;
    for (const TrieNode& node : nodes) {
      max_len = std::max(max_len, node.len);
    }
    ids = StableSortByKey(ids, n_sorted, [&](uint32_t v) { return nodes[v].lo; });
    ids = StableSortByKey(ids, static_cast<std::size_t>(max_len) + 1,
                          [&](uint32_t v) { return nodes[v].len; });
    for (const uint32_t idx : ids) {
      TrieNode& node = nodes[idx];
      const uint32_t pmat = node.parent != kNone ? nodes[node.parent].mat : kNone;
      const int64_t plen = pmat != kNone ? nodes[pmat].len : 0;
      // Inherit by default; overwritten below when this node materializes.
      node.mat = pmat;
      if (static_cast<int64_t>(selected.size()) >= ctx.fuse_budget) {
        continue;
      }
      const int64_t consumers = static_cast<int64_t>(node.hi) - node.lo + 1;
      const int64_t sigma = node.len - std::max<int64_t>(plen, 1);
      if ((consumers - 1) * sigma < 2) {
        continue;
      }
      node.level = pmat != kNone ? nodes[pmat].level + 1 : 0;
      node.mat = idx;
      max_level = std::max(max_level, node.level);
      selected.push_back(idx);
    }
  }
  if (selected.empty()) {
    return;
  }

  const int64_t base_rows = bottom.src_rows;
  const auto num_partials = static_cast<int64_t>(selected.size());
  if (static_cast<uint64_t>(base_rows) + static_cast<uint64_t>(num_partials) >
      std::numeric_limits<uint32_t>::max()) {
    return;  // extended ids must fit u32
  }

  // ---- Assign partial indices: level-major, deterministic within a level ----
  // A partial's build list references only its materialized ancestor, which
  // sits in a strictly lower level, so level-major order is a topological
  // order and each level is internally parallel. Selected nodes sharing lo
  // are nested, so their levels differ and (level, lo) names a partial:
  // stable counting sorts by lo, then by level, give the (level, lo, len)
  // order.
  selected = StableSortByKey(selected, n_sorted, [&](uint32_t v) { return nodes[v].lo; });
  selected = StableSortByKey(selected, static_cast<std::size_t>(max_level) + 1,
                             [&](uint32_t v) { return nodes[v].level; });
  for (std::size_t p = 0; p < selected.size(); ++p) {
    nodes[selected[p]].partial_id = static_cast<uint32_t>(p);
  }

  FusionDraft& fusion = draft.fusion;
  fusion.base_rows = base_rows;
  fusion.num_partials = num_partials;

  // ---- Partial build program + per-level chunk tables ----
  fusion.partial_offsets.assign(1, 0);
  fusion.partial_offsets.reserve(static_cast<std::size_t>(num_partials) + 1);
  fusion.level_ends.assign(static_cast<std::size_t>(max_level) + 1, 0);
  for (const uint32_t idx : selected) {
    const TrieNode& node = nodes[idx];
    const uint64_t base = seg_begin(order[node.lo]);
    const uint32_t pmat = node.parent != kNone ? nodes[node.parent].mat : kNone;
    uint32_t plen = 0;
    if (pmat != kNone) {
      plen = nodes[pmat].len;
      fusion.partial_ids.push_back(
          static_cast<uint32_t>(base_rows + nodes[pmat].partial_id));
    }
    for (uint32_t i = plen; i < node.len; ++i) {
      fusion.partial_ids.push_back(refs[base + i]);
    }
    fusion.partial_offsets.push_back(fusion.partial_ids.size());
    ++fusion.level_ends[node.level];
  }
  std::partial_sum(fusion.level_ends.begin(), fusion.level_ends.end(),
                   fusion.level_ends.begin());
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

  // ---- Rewrite the root reduce: longest materialized prefix per segment ----
  // The materialized nodes containing a position are ancestors-or-self of the
  // deepest node containing it, so the longest is that node's `mat`.
  std::vector<uint32_t> best_of_segment(static_cast<std::size_t>(num_segments), kNone);
  for (uint32_t p = 0; p < n_sorted; ++p) {
    best_of_segment[order[p]] = deepest[p] != kNone ? nodes[deepest[p]].mat : kNone;
  }

  fusion.offsets.assign(1, 0);
  fusion.offsets.reserve(static_cast<std::size_t>(num_segments) + 1);
  fusion.ids.reserve(refs.size());
  for (int64_t s = 0; s < num_segments; ++s) {
    const uint64_t lo = offs[static_cast<std::size_t>(s)];
    const uint64_t hi = offs[static_cast<std::size_t>(s) + 1];
    const uint32_t node_idx = best_of_segment[static_cast<std::size_t>(s)];
    uint64_t skip = 0;
    if (node_idx != kNone) {
      const TrieNode& node = nodes[node_idx];
      fusion.ids.push_back(static_cast<uint32_t>(base_rows + node.partial_id));
      skip = node.len;
    }
    fusion.ids.insert(fusion.ids.end(), refs.begin() + static_cast<std::ptrdiff_t>(lo + skip),
                      refs.begin() + static_cast<std::ptrdiff_t>(hi));
    fusion.offsets.push_back(fusion.ids.size());
  }
  fusion.chunks = MakeSegmentChunks(fusion.offsets, kPlanChunkTarget);

  fusion.leaf_refs_before = refs.size();
  fusion.leaf_refs_after = fusion.ids.size() + fusion.partial_ids.size();
  if (fusion.leaf_refs_after >= fusion.leaf_refs_before) {
    draft.fusion = FusionDraft();  // cost model says this cannot happen; belt+braces
    return;
  }

  // ---- Extended inverse map for the backward's parallel per-source gather ----
  // Same counting sort as the lower pass, over extended source ids and the
  // rewritten root segments only (partial-gradient distribution to build refs
  // is a separate sequential sweep in the executor).
  {
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
        const auto v = static_cast<std::size_t>(fusion.ids[e]);
        src_edge_segments[cursor[v]++] = static_cast<uint32_t>(s);
      }
    }
    fusion.src_rows = src_rows;
    fusion.src_chunks = MakeSegmentChunks(src_offsets, kPlanChunkTarget);
    fusion.src_offsets = std::move(src_offsets);
    fusion.src_edge_segments = std::move(src_edge_segments);
  }

  draft.has_fusion = true;
  FLEX_COUNTER_ADD("plan.fuse_candidates", static_cast<int64_t>(nodes.size()));
}

}  // namespace flexgraph
