// LowerPass — HDG levels → LevelDrafts. This is the former monolithic body of
// CompileExecutionPlan: segment offsets, the bottom level's leaf ids (its
// gather index), the upper levels' scatter index tensors, the inverse
// leaf→segment map for the deterministic parallel backward, fixed chunk
// tables, and GAT's per-edge destination index.
#include <algorithm>
#include <vector>

#include "src/exec/chunks.h"
#include "src/exec/passes/pass.h"

namespace flexgraph {
namespace {

// Destination segment per input row, from CSC offsets.
std::vector<uint32_t> SegmentOfRow(std::span<const uint64_t> offsets) {
  const std::size_t num_segments = offsets.empty() ? 0 : offsets.size() - 1;
  std::vector<uint32_t> seg(num_segments == 0 ? 0 : offsets[num_segments]);
  for (std::size_t s = 0; s < num_segments; ++s) {
    for (uint64_t e = offsets[s]; e < offsets[s + 1]; ++e) {
      seg[e] = static_cast<uint32_t>(s);
    }
  }
  return seg;
}

// Builds a bottom level's inverse (source → segment) map and source chunk
// table from its leaf ids and offsets, over source rows
// [0, max(leaf_ids) + 1).
void BuildLevelInverseMap(LevelDraft& level) {
  const std::vector<VertexId>& leaves = level.leaf_ids;
  uint32_t max_id = 0;
  for (const VertexId v : leaves) {
    max_id = std::max(max_id, v);
  }
  const int64_t src_rows = leaves.empty() ? 0 : static_cast<int64_t>(max_id) + 1;
  std::vector<uint64_t> src_offsets(static_cast<std::size_t>(src_rows) + 1, 0);
  for (const VertexId v : leaves) {
    ++src_offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 1; v < src_offsets.size(); ++v) {
    src_offsets[v] += src_offsets[v - 1];
  }
  std::vector<uint32_t> src_edge_segments(leaves.size());
  std::vector<uint64_t> cursor(src_offsets.begin(), src_offsets.end() - 1);
  for (std::size_t s = 0; s + 1 < level.offsets.size(); ++s) {
    for (uint64_t e = level.offsets[s]; e < level.offsets[s + 1]; ++e) {
      src_edge_segments[cursor[leaves[e]]++] = static_cast<uint32_t>(s);
    }
  }
  level.src_rows = src_rows;
  level.src_chunks = MakeSegmentChunks(src_offsets, kPlanChunkTarget);
  level.src_offsets = std::move(src_offsets);
  level.src_edge_segments = std::move(src_edge_segments);
}

}  // namespace

void LowerPass(PlanDraft& draft, const Hdg& hdg) {
  // ---- Bottom level: leaf refs → instances (or roots when flat) ----
  const auto bottom_offs = hdg.bottom_offsets();
  const auto leaf_span = hdg.leaf_vertex_ids();
  LevelDraft& bottom = draft.bottom;
  bottom.kernel = draft.strategy == ExecStrategy::kSparse
                      ? LevelKernelClass::kGatherSegmentReduce
                      : LevelKernelClass::kFused;
  bottom.num_segments = static_cast<int64_t>(hdg.num_bottom_segments());
  bottom.input_rows = static_cast<int64_t>(leaf_span.size());
  bottom.offsets.assign(bottom_offs.begin(), bottom_offs.end());
  // The leaf ids are the gather index. No scatter index: the executor reduces
  // the bottom level over its offsets, never by a per-row segment id.
  bottom.leaf_ids.assign(leaf_span.begin(), leaf_span.end());
  bottom.chunks = MakeSegmentChunks(bottom_offs, kPlanChunkTarget);

  // Inverse leaf→segment map for the deterministic parallel backward: bucket
  // the leaf refs by source vertex, preserving ascending edge order within
  // each bucket (a counting sort is stable here because we append in edge
  // order), so the per-source accumulation order matches the sequential
  // scatter's global edge order.
  BuildLevelInverseMap(bottom);

  // Flat HDGs: per-edge root vertex id, the destination side of GAT's edge
  // attention scores.
  if (draft.flat) {
    std::vector<uint32_t> dst(leaf_span.size());
    const auto roots = hdg.roots();
    for (std::size_t s = 0; s + 1 < bottom_offs.size(); ++s) {
      for (uint64_t e = bottom_offs[s]; e < bottom_offs[s + 1]; ++e) {
        dst[e] = static_cast<uint32_t>(roots[s]);
      }
    }
    draft.edge_dst_index = std::move(dst);
    draft.has_edge_dst = true;
  }

  // ---- Instance and schema levels (hierarchical HDGs only) ----
  if (!draft.flat) {
    const auto slot_offs = hdg.slot_offsets();
    LevelDraft& inst = draft.instance;
    inst.kernel = draft.strategy == ExecStrategy::kSparse ? LevelKernelClass::kScatter
                                                          : LevelKernelClass::kSegmentReduce;
    inst.num_segments = static_cast<int64_t>(slot_offs.size()) - 1;
    inst.input_rows = static_cast<int64_t>(hdg.num_instances());
    inst.offsets.assign(slot_offs.begin(), slot_offs.end());
    inst.scatter_index = SegmentOfRow(slot_offs);
    inst.chunks = MakeSegmentChunks(slot_offs, kPlanChunkTarget);
    draft.has_instance = true;

    const int64_t group = hdg.num_types();
    const int64_t num_roots = hdg.num_roots();
    LevelDraft& schema = draft.schema;
    schema.kernel = draft.strategy == ExecStrategy::kHybrid ? LevelKernelClass::kDenseGroupReduce
                                                            : LevelKernelClass::kScatter;
    schema.group = group;
    schema.num_segments = num_roots;
    schema.input_rows = num_roots * group;
    // Fixed-width segments: root r reduces slots [r·T, (r+1)·T).
    schema.offsets.resize(static_cast<std::size_t>(num_roots) + 1);
    for (std::size_t r = 0; r < schema.offsets.size(); ++r) {
      schema.offsets[r] = r * static_cast<uint64_t>(group);
    }
    schema.scatter_index = SegmentOfRow(schema.offsets);
    schema.chunks = MakeRowChunks(num_roots, kPlanChunkTarget);
    draft.has_schema = true;
  }
}

}  // namespace flexgraph
