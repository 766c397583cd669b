#include "src/exec/verify.h"

#include <algorithm>
#include <sstream>

namespace flexgraph {
namespace {

// Collects issues with a fixed level label so each check reads as
// `check.Fail("offsets", i) << "..."`-style prose below.
class IssueSink {
 public:
  IssueSink(VerifyResult* result, std::string level)
      : result_(result), level_(std::move(level)) {}

  void Fail(const std::string& array, int64_t index, const std::string& message) {
    result_->issues.push_back(VerifyIssue{level_, array, index, message});
  }

 private:
  VerifyResult* result_;
  std::string level_;
};

std::string U64(uint64_t v) { return std::to_string(v); }
std::string I64(int64_t v) { return std::to_string(v); }

// CSC offset-array invariants shared by every level: present, sized
// segments+1, anchored at 0, monotone non-decreasing, and covering exactly
// `expected_rows` input rows.
void CheckOffsets(IssueSink& sink, const std::string& array,
                  std::span<const uint64_t> offsets, int64_t num_segments,
                  int64_t expected_rows) {
  if (offsets.empty()) {
    sink.Fail(array, -1, "offset array is empty");
    return;
  }
  if (static_cast<int64_t>(offsets.size()) != num_segments + 1) {
    sink.Fail(array, -1,
              "offset array has " + U64(offsets.size()) + " entries, expected " +
                  I64(num_segments + 1) + " (num_segments + 1)");
    return;
  }
  if (offsets.front() != 0) {
    sink.Fail(array, 0, "offsets must start at 0, got " + U64(offsets.front()));
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      sink.Fail(array, static_cast<int64_t>(i),
                "offsets not monotone: offsets[" + U64(i) + "]=" + U64(offsets[i]) +
                    " < offsets[" + U64(i - 1) + "]=" + U64(offsets[i - 1]));
      return;  // later bound checks would cascade
    }
  }
  if (expected_rows >= 0 && offsets.back() != static_cast<uint64_t>(expected_rows)) {
    sink.Fail(array, static_cast<int64_t>(offsets.size()) - 1,
              "offsets end at " + U64(offsets.back()) + ", expected " +
                  I64(expected_rows) + " input rows");
  }
}

// The elided-Dst ordering property: rows are sorted by destination segment,
// so scatter_index is exactly "segment of row" under `offsets` — in
// particular non-decreasing. Verified per-row against the offset array.
void CheckScatter(IssueSink& sink, std::span<const uint32_t> scatter,
                  std::span<const uint64_t> offsets, int64_t num_segments,
                  int64_t input_rows) {
  if (static_cast<int64_t>(scatter.size()) != input_rows) {
    sink.Fail("scatter_index", -1,
              "scatter_index has " + U64(scatter.size()) + " entries, expected " +
                  I64(input_rows) + " input rows");
    return;
  }
  for (int64_t s = 0; s < num_segments; ++s) {
    const uint64_t lo = offsets[static_cast<std::size_t>(s)];
    const uint64_t hi = offsets[static_cast<std::size_t>(s) + 1];
    for (uint64_t e = lo; e < hi; ++e) {
      if (scatter[static_cast<std::size_t>(e)] != static_cast<uint32_t>(s)) {
        sink.Fail("scatter_index", static_cast<int64_t>(e),
                  "elided-Dst ordering violated: row " + U64(e) + " maps to segment " +
                      U64(scatter[static_cast<std::size_t>(e)]) + " but lies in segment " +
                      I64(s) + "'s offset range [" + U64(lo) + ", " + U64(hi) + ")");
        return;
      }
    }
  }
}

// Chunk boundaries live in segment space: monotone, anchored at 0, ending at
// num_segments, so every segment belongs to exactly one chunk.
void CheckChunks(IssueSink& sink, const std::string& array,
                 std::span<const int64_t> chunks, int64_t num_segments) {
  if (chunks.empty()) {
    sink.Fail(array, -1, "chunk array is empty");
    return;
  }
  if (chunks.front() != 0) {
    sink.Fail(array, 0, "chunks must start at 0, got " + I64(chunks.front()));
  }
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    if (chunks[i] < chunks[i - 1]) {
      sink.Fail(array, static_cast<int64_t>(i),
                "chunks not monotone: chunks[" + U64(i) + "]=" + I64(chunks[i]) +
                    " < chunks[" + U64(i - 1) + "]=" + I64(chunks[i - 1]));
      return;
    }
  }
  if (chunks.back() != num_segments) {
    sink.Fail(array, static_cast<int64_t>(chunks.size()) - 1,
              "chunks end at " + I64(chunks.back()) + ", expected " + I64(num_segments) +
                  " segments");
  }
}

// Common-subtree fusion invariants (FusionPlan, level label "fusion"):
//   - structure: partial build / rewritten root offset arrays well-formed;
//   - acyclicity: a partial references only input rows and strictly
//     lower-indexed partials, so the build program has a topological order;
//   - range: every extended id (build refs and rewritten root refs) lies in
//     [0, base_rows + num_partials);
//   - profitability: every materialized partial has >= 2 consumers across
//     the rewritten root and the other partials (a single-consumer partial
//     is a pure loss: one materialization + one read replaces one read);
//   - semantics: recursively expanding each rewritten segment reproduces the
//     level's original leaf list exactly, order included (prefix fusion is
//     order-preserving — this is what makes the fused fold bitwise equal).
// Each check returns on first failure so a corrupted program names exactly
// one issue.
void VerifyFusion(VerifyResult* result, const LevelPlan& bottom) {
  IssueSink sink(result, "fusion");
  const FusionPlan& f = *bottom.fusion;
  if (!f.partial_offsets || !f.partial_ids || !f.offsets || !f.ids || !f.scale_offsets) {
    sink.Fail("fusion", -1, "fusion program is missing index arrays");
    return;
  }
  const auto& poffs = *f.partial_offsets;
  const auto& pids = *f.partial_ids;
  const auto& offs = *f.offsets;
  const auto& ids = *f.ids;
  const uint64_t ext_rows = static_cast<uint64_t>(f.base_rows + f.num_partials);

  const std::size_t issues_before = result->issues.size();
  CheckOffsets(sink, "partial_offsets", poffs, f.num_partials,
               static_cast<int64_t>(pids.size()));
  CheckOffsets(sink, "offsets", offs, bottom.num_segments, static_cast<int64_t>(ids.size()));
  if (result->issues.size() != issues_before) {
    return;  // structure broken; element checks would cascade
  }

  for (int64_t p = 0; p < f.num_partials; ++p) {
    for (uint64_t e = poffs[static_cast<std::size_t>(p)];
         e < poffs[static_cast<std::size_t>(p) + 1]; ++e) {
      const uint32_t id = pids[e];
      if (static_cast<uint64_t>(id) >= ext_rows) {
        sink.Fail("partial_ids", static_cast<int64_t>(e),
                  "extended id " + U64(id) + " out of range [0, " + U64(ext_rows) + ")");
        return;
      }
      if (static_cast<int64_t>(id) >= f.base_rows + p) {
        sink.Fail("partial_ids", static_cast<int64_t>(e),
                  "partial " + I64(p) + " references partial " +
                      I64(static_cast<int64_t>(id) - f.base_rows) +
                      "; the dependency order must be strictly lower-indexed (acyclic)");
        return;
      }
    }
  }

  for (std::size_t e = 0; e < ids.size(); ++e) {
    if (static_cast<uint64_t>(ids[e]) >= ext_rows) {
      sink.Fail("ids", static_cast<int64_t>(e),
                "rewritten index " + U64(ids[e]) + " out of range [0, " + U64(ext_rows) +
                    ")");
      return;
    }
  }

  std::vector<uint64_t> consumers(static_cast<std::size_t>(f.num_partials), 0);
  for (const uint32_t id : ids) {
    if (static_cast<int64_t>(id) >= f.base_rows) {
      ++consumers[static_cast<std::size_t>(static_cast<int64_t>(id) - f.base_rows)];
    }
  }
  for (const uint32_t id : pids) {
    if (static_cast<int64_t>(id) >= f.base_rows) {
      ++consumers[static_cast<std::size_t>(static_cast<int64_t>(id) - f.base_rows)];
    }
  }
  for (int64_t p = 0; p < f.num_partials; ++p) {
    if (consumers[static_cast<std::size_t>(p)] < 2) {
      sink.Fail("partials", p,
                "shared partial " + I64(p) + " is referenced " +
                    U64(consumers[static_cast<std::size_t>(p)]) +
                    " time(s); a materialized partial must have at least 2 consumers");
      return;
    }
  }

  if (bottom.leaf_ids == nullptr || bottom.offsets == nullptr) {
    return;  // missing originals already reported by the level checks
  }
  const auto& orig = *bottom.leaf_ids;
  const auto& orig_offs = *bottom.offsets;
  if (!std::equal(f.scale_offsets->begin(), f.scale_offsets->end(), orig_offs.begin(),
                  orig_offs.end())) {
    sink.Fail("scale_offsets", -1,
              "mean-scale offsets diverge from the level's original offsets");
    return;
  }
  // Memoized expansion: ascending partial index is a topological order (the
  // acyclicity check above), so every referenced partial is already expanded.
  std::vector<std::vector<uint32_t>> expanded(static_cast<std::size_t>(f.num_partials));
  for (int64_t p = 0; p < f.num_partials; ++p) {
    auto& flat = expanded[static_cast<std::size_t>(p)];
    for (uint64_t e = poffs[static_cast<std::size_t>(p)];
         e < poffs[static_cast<std::size_t>(p) + 1]; ++e) {
      const uint32_t id = pids[e];
      if (static_cast<int64_t>(id) < f.base_rows) {
        flat.push_back(id);
      } else {
        const auto& sub = expanded[static_cast<std::size_t>(static_cast<int64_t>(id) -
                                                            f.base_rows)];
        flat.insert(flat.end(), sub.begin(), sub.end());
      }
    }
  }
  std::vector<uint32_t> segment;
  for (int64_t s = 0; s < bottom.num_segments; ++s) {
    segment.clear();
    for (uint64_t e = offs[static_cast<std::size_t>(s)];
         e < offs[static_cast<std::size_t>(s) + 1]; ++e) {
      const uint32_t id = ids[e];
      if (static_cast<int64_t>(id) < f.base_rows) {
        segment.push_back(id);
      } else {
        const auto& sub = expanded[static_cast<std::size_t>(static_cast<int64_t>(id) -
                                                            f.base_rows)];
        segment.insert(segment.end(), sub.begin(), sub.end());
      }
    }
    const uint64_t olo = orig_offs[static_cast<std::size_t>(s)];
    const uint64_t ohi = orig_offs[static_cast<std::size_t>(s) + 1];
    if (segment.size() != ohi - olo ||
        !std::equal(segment.begin(), segment.end(), orig.begin() + static_cast<int64_t>(olo))) {
      sink.Fail("ids", s,
                "rewritten segment " + I64(s) +
                    " does not expand to the original leaf list");
      return;
    }
  }
}

}  // namespace

std::string VerifyResult::Summary() const {
  std::ostringstream os;
  for (const VerifyIssue& issue : issues) {
    os << issue.level << '.' << issue.array;
    if (issue.index >= 0) {
      os << '[' << issue.index << ']';
    }
    os << ": " << issue.message << '\n';
  }
  return os.str();
}

HdgView MakeHdgView(const Hdg& hdg) {
  HdgView view;
  view.flat = hdg.flat();
  view.num_roots = hdg.num_roots();
  view.num_types = hdg.num_types();
  view.roots = hdg.roots();
  view.slot_offsets = hdg.slot_offsets();
  view.instance_leaf_offsets = hdg.instance_leaf_offsets();
  view.leaf_vertex_ids = hdg.leaf_vertex_ids();
  const Hdg::MemoryFootprint fp = hdg.Footprint();
  view.schema_bytes = fp.schema_bytes;
  view.naive_schema_bytes = fp.naive_schema_bytes;
  return view;
}

VerifyResult VerifyHdg(const HdgView& view, uint64_t num_graph_vertices) {
  VerifyResult result;
  IssueSink sink(&result, "hdg");

  // Level 1: slot offsets. Flat HDGs have one implicit type, so the slot
  // array is indexed per root; hierarchical HDGs carry R·T slots.
  const int64_t num_slots =
      view.flat ? static_cast<int64_t>(view.num_roots)
                : static_cast<int64_t>(view.num_roots) * static_cast<int64_t>(view.num_types);
  const int64_t num_instances =
      view.slot_offsets.empty() ? 0 : static_cast<int64_t>(view.slot_offsets.back());
  // Flat HDGs collapse levels 1-2: slot offsets index straight into the leaf
  // array, so their last entry must cover every leaf reference.
  const int64_t slot_rows =
      view.flat ? static_cast<int64_t>(view.leaf_vertex_ids.size()) : num_instances;
  CheckOffsets(sink, "slot_offsets", view.slot_offsets, num_slots, slot_rows);

  if (view.flat) {
    if (!view.instance_leaf_offsets.empty()) {
      sink.Fail("instance_leaf_offsets", -1,
                "flat HDGs must elide the instance level, found " +
                    U64(view.instance_leaf_offsets.size()) + " offsets");
    }
  } else {
    CheckOffsets(sink, "instance_leaf_offsets", view.instance_leaf_offsets, num_instances,
                 static_cast<int64_t>(view.leaf_vertex_ids.size()));
  }

  // Bottom level: every leaf must name a vertex that exists in the graph.
  for (std::size_t i = 0; i < view.leaf_vertex_ids.size(); ++i) {
    if (static_cast<uint64_t>(view.leaf_vertex_ids[i]) >= num_graph_vertices) {
      sink.Fail("leaf_vertex_ids", static_cast<int64_t>(i),
                "leaf vertex id " + U64(view.leaf_vertex_ids[i]) + " out of range [0, " +
                    U64(num_graph_vertices) + ")");
      break;  // one report per array; a corrupt build usually fails wholesale
    }
  }

  // Schema sharing (paper §4.2's storage optimization): the tree is stored
  // once — the naive cost is exactly one copy per root. A duplicated schema
  // shows up as schema_bytes inflated past its per-root share.
  if (view.num_roots > 0 &&
      view.naive_schema_bytes !=
          static_cast<std::size_t>(view.num_roots) * view.schema_bytes) {
    sink.Fail("schema", -1,
              "schema tree not shared across roots: stored " + U64(view.schema_bytes) +
                  " bytes, expected naive (per-root) total " + U64(view.naive_schema_bytes) +
                  " = " + U64(view.num_roots) + " roots x one shared copy");
  }

  return result;
}

VerifyResult VerifyHdg(const Hdg& hdg, uint64_t num_graph_vertices) {
  return VerifyHdg(MakeHdgView(hdg), num_graph_vertices);
}

namespace {

// Verifies one LevelPlan's self-consistency. Every level carries offsets
// (the schema level's are fixed-width, [0, T, 2T, …]); the instance and
// schema levels also carry a scatter index, the bottom level none.
void VerifyLevel(VerifyResult* result, const std::string& level_name, const LevelPlan& level,
                 bool scatters) {
  IssueSink sink(result, level_name);
  if (level.num_segments < 0 || level.input_rows < 0) {
    sink.Fail("level", -1,
              "negative geometry: num_segments=" + I64(level.num_segments) +
                  " input_rows=" + I64(level.input_rows));
    return;
  }
  if (level.offsets == nullptr) {
    sink.Fail("offsets", -1, "level has no offset array");
    return;
  }
  CheckOffsets(sink, "offsets", *level.offsets, level.num_segments, level.input_rows);
  if (scatters && level.scatter_index != nullptr &&
      static_cast<int64_t>(level.offsets->size()) == level.num_segments + 1) {
    CheckScatter(sink, *level.scatter_index, *level.offsets, level.num_segments,
                 level.input_rows);
  }
  if (level.chunks != nullptr) {
    CheckChunks(sink, "chunks", *level.chunks, level.num_segments);
  }
  if (level.group > 0 && level.input_rows != level.num_segments * level.group) {
    sink.Fail("group", -1,
              "group geometry broken: " + I64(level.num_segments) + " segments x group " +
                  I64(level.group) + " != " + I64(level.input_rows) + " input rows");
  }
}

// The leaf→segment inverse map must be a true inverse of the forward reduce:
// same edge multiset, bucketed by source vertex, ascending edge order within
// each bucket. Verified with one O(E) cursor walk over the forward edge
// order, each edge's segment read off the level's offsets — each edge must
// land exactly where the walk's cursor points.
void VerifyInverseMap(VerifyResult* result, const LevelPlan& bottom) {
  IssueSink sink(result, "bottom");
  if (bottom.src_offsets == nullptr || bottom.src_edge_segments == nullptr ||
      bottom.leaf_ids == nullptr) {
    sink.Fail("src_offsets", -1, "bottom level is missing its inverse map");
    return;
  }
  const auto& src_offsets = *bottom.src_offsets;
  const auto& src_segments = *bottom.src_edge_segments;
  const auto& leaf_ids = *bottom.leaf_ids;

  CheckOffsets(sink, "src_offsets", src_offsets, bottom.src_rows, bottom.input_rows);
  if (!result->issues.empty()) {
    return;  // the walk below trusts the level's offsets, checked clean by now
  }
  if (src_segments.size() != leaf_ids.size() ||
      static_cast<int64_t>(leaf_ids.size()) != bottom.input_rows) {
    sink.Fail("src_edge_segments", -1,
              "inverse map covers " + U64(src_segments.size()) + " edges, forward has " +
                  U64(leaf_ids.size()));
    return;
  }
  if (bottom.src_chunks != nullptr) {
    CheckChunks(sink, "src_chunks", *bottom.src_chunks, bottom.src_rows);
  }

  const auto& offsets = *bottom.offsets;
  std::vector<uint64_t> cursor(src_offsets.begin(), src_offsets.end() - 1);
  for (int64_t s = 0; s < bottom.num_segments; ++s) {
    for (uint64_t e = offsets[static_cast<std::size_t>(s)];
         e < offsets[static_cast<std::size_t>(s) + 1]; ++e) {
      const auto v = static_cast<std::size_t>(leaf_ids[e]);
      if (v >= cursor.size()) {
        sink.Fail("src_offsets", static_cast<int64_t>(e),
                  "edge " + U64(e) + " sources vertex " + U64(leaf_ids[e]) +
                      " beyond src_rows=" + I64(bottom.src_rows));
        return;
      }
      const uint64_t slot = cursor[v]++;
      if (slot >= src_offsets[v + 1]) {
        sink.Fail("src_edge_segments", static_cast<int64_t>(e),
                  "source vertex " + U64(leaf_ids[e]) + " has more forward edges than its " +
                      "inverse bucket holds");
        return;
      }
      if (src_segments[static_cast<std::size_t>(slot)] != static_cast<uint32_t>(s)) {
        sink.Fail("src_edge_segments", static_cast<int64_t>(slot),
                  "inverse map is not the inverse: edge " + U64(e) + " of source vertex " +
                      U64(leaf_ids[e]) + " reduces into segment " + I64(s) +
                      " but the inverse records segment " +
                      U64(src_segments[static_cast<std::size_t>(slot)]));
        return;
      }
    }
  }
  for (std::size_t v = 0; v + 1 < src_offsets.size(); ++v) {
    if (cursor[v] != src_offsets[v + 1]) {
      sink.Fail("src_offsets", static_cast<int64_t>(v),
                "inverse bucket of source vertex " + U64(v) + " holds " +
                    U64(src_offsets[v + 1] - src_offsets[v]) + " edges but the forward " +
                    "scatter produced " + U64(cursor[v] - src_offsets[v]));
      return;
    }
  }
}

}  // namespace

VerifyResult VerifyPlan(const ExecutionPlan& plan, const HdgView& view,
                        uint64_t num_graph_vertices) {
  VerifyResult result;

  VerifyLevel(&result, "bottom", plan.bottom(), /*scatters=*/false);
  if (plan.has_instance()) {
    VerifyLevel(&result, "instance", plan.instance(), /*scatters=*/true);
  }
  if (plan.has_schema()) {
    VerifyLevel(&result, "schema", plan.schema(), /*scatters=*/true);
  }

  IssueSink bottom_sink(&result, "bottom");

  // Leaf ids, which the kernels also gather by: every entry a real graph
  // vertex.
  if (plan.bottom().leaf_ids == nullptr) {
    bottom_sink.Fail("leaf_ids", -1, "bottom level is missing its leaf ids");
  } else {
    const auto& leaf_ids = *plan.bottom().leaf_ids;
    for (std::size_t i = 0; i < leaf_ids.size(); ++i) {
      if (leaf_ids[i] >= num_graph_vertices) {
        bottom_sink.Fail("leaf_ids", static_cast<int64_t>(i),
                         "leaf id " + U64(leaf_ids[i]) + " out of range [0, " +
                             U64(num_graph_vertices) + ")");
        break;
      }
    }
  }

  VerifyInverseMap(&result, plan.bottom());

  if (plan.bottom().fusion != nullptr) {
    VerifyFusion(&result, plan.bottom());
  }

  // Cross-consistency with the HDG the plan claims to execute.
  if (plan.flat() != view.flat) {
    bottom_sink.Fail("plan", -1,
                     std::string("plan/HDG flatness mismatch: plan is ") +
                         (plan.flat() ? "flat" : "hierarchical") + ", HDG is " +
                         (view.flat ? "flat" : "hierarchical"));
  }
  const std::span<const uint64_t> hdg_bottom =
      view.flat ? view.slot_offsets : view.instance_leaf_offsets;
  if (plan.bottom().offsets != nullptr &&
      !std::equal(plan.bottom().offsets->begin(), plan.bottom().offsets->end(),
                  hdg_bottom.begin(), hdg_bottom.end())) {
    bottom_sink.Fail("offsets", -1, "plan bottom offsets diverge from the HDG's");
  }
  // The plan's leaf ids are the HDG's, byte for byte.
  if (plan.bottom().leaf_ids != nullptr) {
    const auto& leaf_ids = *plan.bottom().leaf_ids;
    if (leaf_ids.size() != view.leaf_vertex_ids.size()) {
      bottom_sink.Fail("leaf_ids", -1, "plan leaf ids diverge from the HDG's");
    } else {
      for (std::size_t i = 0; i < leaf_ids.size(); ++i) {
        if (leaf_ids[i] != view.leaf_vertex_ids[i]) {
          bottom_sink.Fail("leaf_ids", static_cast<int64_t>(i),
                           "plan leaf ids diverge from the HDG's");
          break;
        }
      }
    }
  }
  if (!plan.flat()) {
    IssueSink instance_sink(&result, "instance");
    if (plan.instance().offsets != nullptr &&
        !std::equal(plan.instance().offsets->begin(), plan.instance().offsets->end(),
                    view.slot_offsets.begin(), view.slot_offsets.end())) {
      instance_sink.Fail("offsets", -1, "plan instance offsets diverge from the HDG's slots");
    }
  }

  // Flat plans carry the per-edge destination vertex (GAT broadcast): each
  // edge's destination must be the root of the segment that owns it.
  const LevelPlan& bottom = plan.bottom();
  if (plan.flat() && plan.edge_dst_index() != nullptr && bottom.offsets != nullptr &&
      bottom.offsets->size() == static_cast<std::size_t>(bottom.num_segments) + 1 &&
      view.roots.size() == static_cast<std::size_t>(bottom.num_segments)) {
    const auto& dst = *plan.edge_dst_index();
    const auto& offsets = *bottom.offsets;
    if (static_cast<int64_t>(dst.size()) != bottom.input_rows) {
      bottom_sink.Fail("edge_dst_index", -1,
                       "edge destination index has " + U64(dst.size()) + " entries, expected " +
                           I64(bottom.input_rows));
    } else {
      bool ok = true;
      for (std::size_t s = 0; ok && s < view.roots.size(); ++s) {
        for (uint64_t e = offsets[s]; e < offsets[s + 1] && e < dst.size(); ++e) {
          if (dst[e] != static_cast<uint32_t>(view.roots[s])) {
            bottom_sink.Fail("edge_dst_index", static_cast<int64_t>(e),
                             "edge " + U64(e) + " records destination " + U64(dst[e]) +
                                 " but its segment's root is " + U64(view.roots[s]));
            ok = false;
            break;
          }
        }
      }
    }
  }

  // The arena reservation hint must be present whenever there is work.
  if (plan.bottom().input_rows > 0 && plan.planned_bytes() == 0) {
    IssueSink ws_sink(&result, "workspace");
    ws_sink.Fail("planned_bytes", -1, "plan has work but a zero workspace estimate");
  }

  return result;
}

VerifyResult VerifyPlan(const ExecutionPlan& plan, const Hdg& hdg,
                        uint64_t num_graph_vertices) {
  return VerifyPlan(plan, MakeHdgView(hdg), num_graph_vertices);
}

VerifyResult VerifyWorkspace(const ExecutionPlan& plan, std::size_t high_water_bytes) {
  VerifyResult result;
  IssueSink sink(&result, "workspace");
  if (high_water_bytes > plan.planned_bytes()) {
    sink.Fail("planned_bytes", -1,
              "workspace estimate " + U64(plan.planned_bytes()) +
                  " bytes below the measured high water " + U64(high_water_bytes) +
                  " bytes");
  }
  return result;
}

}  // namespace flexgraph
