#include "src/hdg/hdg.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flexgraph {

namespace {

// Shared accounting for every HDG construction path.
void RecordHdgBuildMetrics(const Hdg& hdg, double build_seconds) {
  FLEX_COUNTER_ADD("hdg.builds", 1);
  FLEX_COUNTER_ADD("hdg.instances", static_cast<int64_t>(hdg.num_instances()));
  FLEX_COUNTER_ADD("hdg.leaf_refs", static_cast<int64_t>(hdg.num_leaf_refs()));
  FLEX_HIST_OBSERVE("hdg.build_seconds", build_seconds);
  const Hdg::MemoryFootprint fp = hdg.Footprint();
  FLEX_GAUGE_SET("hdg.last_build_bytes",
                 static_cast<double>(fp.bottom_bytes + fp.in_between_bytes +
                                     fp.schema_bytes + fp.roots_bytes));
}

}  // namespace

Hdg::MemoryFootprint Hdg::Footprint() const {
  MemoryFootprint fp;
  fp.bottom_bytes = instance_leaf_offsets_.size() * sizeof(uint64_t) +
                    leaf_vertex_ids_.size() * sizeof(VertexId);
  fp.in_between_bytes = slot_offsets_.size() * sizeof(uint64_t);
  fp.schema_bytes = schema_.ByteSize();
  fp.roots_bytes = roots_.size() * sizeof(VertexId);

  // Without the elided-Dst optimization every instance carries an explicit
  // destination entry; without the global schema tree every root keeps its
  // own copy.
  fp.naive_in_between_bytes =
      fp.in_between_bytes + static_cast<std::size_t>(num_instances()) * sizeof(VertexId);
  fp.naive_schema_bytes = static_cast<std::size_t>(num_roots()) * schema_.ByteSize();
  return fp;
}

HdgBuilder::HdgBuilder(SchemaTree schema, std::vector<VertexId> roots)
    : owned_index_(std::make_unique<Index>(Index{std::move(schema), std::move(roots), {}})),
      index_(owned_index_.get()) {
  Index& index = *owned_index_;
  VertexId max_id = 0;
  for (VertexId r : index.roots) {
    max_id = std::max(max_id, r);
  }
  index.root_rank.assign(static_cast<std::size_t>(max_id) + 1, 0);
  for (std::size_t i = 0; i < index.roots.size(); ++i) {
    FLEX_CHECK_MSG(index.root_rank[index.roots[i]] == 0, "duplicate root");
    index.root_rank[index.roots[i]] = static_cast<uint32_t>(i) + 1;
  }
}

HdgBuilder HdgBuilder::NewPart() const { return HdgBuilder(index_); }

void HdgBuilder::AddRecord(VertexId root, uint32_t nei_type, std::span<const VertexId> leaves) {
  FLEX_CHECK_LT(nei_type, index_->schema.num_leaf_types());
  const std::vector<uint32_t>& root_rank = index_->root_rank;
  FLEX_CHECK_MSG(root < root_rank.size() && root_rank[root] != 0,
                 "record for a vertex that is not a root of this partition");
  FLEX_CHECK(!leaves.empty());
  Record rec;
  rec.root_rank = root_rank[root] - 1;
  rec.nei_type = nei_type;
  rec.leaf_begin = leaves_.size();
  rec.leaf_count = static_cast<uint32_t>(leaves.size());
  leaves_.insert(leaves_.end(), leaves.begin(), leaves.end());
  records_.push_back(rec);
}

void HdgBuilder::Reserve(uint64_t records, uint64_t leaves) {
  records_.reserve(static_cast<std::size_t>(records));
  leaves_.reserve(static_cast<std::size_t>(leaves));
}

void HdgBuilder::Clear() {
  records_.clear();
  leaves_.clear();
}

Hdg HdgBuilder::Build(std::span<HdgBuilder> parts) {
  FLEX_CHECK_MSG(owned_index_ != nullptr, "a part is built by the builder it came from");
  std::vector<HdgBuilder*> buffers{this};
  uint64_t num_records = records_.size();
  for (HdgBuilder& part : parts) {
    FLEX_CHECK_MSG(part.index_ == index_, "a part of another builder");
    buffers.push_back(&part);
    num_records += part.records_.size();
  }
  FLEX_TRACE_SPAN("hdg.build", {{"roots", static_cast<double>(index_->roots.size())},
                                {"records", static_cast<double>(num_records)}});
  WallTimer build_timer;
  const uint32_t num_types = index_->schema.num_leaf_types();

  Hdg hdg;
  hdg.schema_ = index_->schema;
  hdg.roots_ = std::move(owned_index_->roots);

  // One pass in emission order: slot sizes, the flat test, and whether the
  // records already run in slot order. NeighborSelection emits root by root,
  // so they usually do.
  const std::size_t num_slots =
      static_cast<std::size_t>(hdg.roots_.size()) * num_types;
  hdg.slot_offsets_.assign(num_slots + 1, 0);
  bool all_single_leaf = true;
  bool in_slot_order = true;
  std::size_t prev_slot = 0;
  for (const HdgBuilder* buffer : buffers) {
    for (const Record& rec : buffer->records_) {
      const std::size_t slot =
          static_cast<std::size_t>(rec.root_rank) * num_types + rec.nei_type;
      ++hdg.slot_offsets_[slot + 1];
      in_slot_order = in_slot_order && slot >= prev_slot;
      prev_slot = slot;
      all_single_leaf = all_single_leaf && rec.leaf_count == 1;
    }
  }
  for (std::size_t s = 1; s < hdg.slot_offsets_.size(); ++s) {
    hdg.slot_offsets_[s] += hdg.slot_offsets_[s - 1];
  }
  hdg.flat_ = index_->schema.is_flat() && all_single_leaf;

  if (!in_slot_order) {
    // Order instances by their destination slot; this is what lets the
    // in-between Dst array be elided (paper §4.1(2)). Gather every record
    // here, sort them stably, and lay their leaves out in record order.
    for (HdgBuilder& part : parts) {
      const uint64_t leaf_base = leaves_.size();
      leaves_.insert(leaves_.end(), part.leaves_.begin(), part.leaves_.end());
      for (Record rec : part.records_) {
        rec.leaf_begin += leaf_base;
        records_.push_back(rec);
      }
      part.Clear();
    }
    std::stable_sort(records_.begin(), records_.end(), [](const Record& a, const Record& b) {
      if (a.root_rank != b.root_rank) {
        return a.root_rank < b.root_rank;
      }
      return a.nei_type < b.nei_type;
    });
    std::vector<VertexId> ordered;
    ordered.reserve(leaves_.size());
    for (const Record& rec : records_) {
      const auto first = leaves_.begin() + static_cast<std::ptrdiff_t>(rec.leaf_begin);
      ordered.insert(ordered.end(), first, first + rec.leaf_count);
    }
    leaves_ = std::move(ordered);
    buffers.resize(1);
  }

  // In slot order, each record's leaves follow the previous record's in its
  // buffer, so the level arrays are the buffers laid end to end.
  uint64_t num_leaves = 0;
  for (const HdgBuilder* buffer : buffers) {
    num_leaves += buffer->leaves_.size();
  }
  hdg.leaf_vertex_ids_.reserve(static_cast<std::size_t>(num_leaves));
  if (!hdg.flat_) {
    hdg.instance_leaf_offsets_.reserve(static_cast<std::size_t>(num_records) + 1);
    hdg.instance_leaf_offsets_.push_back(0);
  }
  for (const HdgBuilder* buffer : buffers) {
    hdg.leaf_vertex_ids_.insert(hdg.leaf_vertex_ids_.end(), buffer->leaves_.begin(),
                                buffer->leaves_.end());
    if (!hdg.flat_) {
      uint64_t end = hdg.instance_leaf_offsets_.back();
      for (const Record& rec : buffer->records_) {
        end += rec.leaf_count;
        hdg.instance_leaf_offsets_.push_back(end);
      }
    }
  }
  RecordHdgBuildMetrics(hdg, build_timer.ElapsedSeconds());
  return hdg;
}

Hdg FlatHdgFromInNeighbors(const CsrGraph& graph, std::vector<VertexId> roots) {
  FLEX_CHECK(graph.has_in_edges());
  FLEX_TRACE_SPAN("hdg.build_flat", {{"roots", static_cast<double>(roots.size())}});
  WallTimer build_timer;
  Hdg hdg;
  hdg.flat_ = true;
  hdg.schema_ = SchemaTree::Flat();
  hdg.roots_ = std::move(roots);
  hdg.slot_offsets_.reserve(hdg.roots_.size() + 1);
  hdg.slot_offsets_.push_back(0);
  for (VertexId root : hdg.roots_) {
    const auto nbrs = graph.InNeighbors(root);
    hdg.leaf_vertex_ids_.insert(hdg.leaf_vertex_ids_.end(), nbrs.begin(), nbrs.end());
    hdg.slot_offsets_.push_back(hdg.leaf_vertex_ids_.size());
  }
  RecordHdgBuildMetrics(hdg, build_timer.ElapsedSeconds());
  return hdg;
}

CsrGraph BuildInducedGraph(const Hdg& hdg, VertexId num_graph_vertices) {
  GraphBuilder builder(num_graph_vertices);
  const uint32_t num_types = hdg.num_types();
  const auto slot_offsets = hdg.slot_offsets();
  const auto leaf_ids = hdg.leaf_vertex_ids();
  const auto inst_offsets = hdg.instance_leaf_offsets();

  for (uint32_t r = 0; r < hdg.num_roots(); ++r) {
    const VertexId root = hdg.root_vertex(r);
    const uint64_t inst_lo = slot_offsets[static_cast<std::size_t>(r) * num_types];
    const uint64_t inst_hi = slot_offsets[static_cast<std::size_t>(r + 1) * num_types];
    const uint64_t leaf_lo = hdg.flat() ? inst_lo : inst_offsets[inst_lo];
    const uint64_t leaf_hi = hdg.flat() ? inst_hi : inst_offsets[inst_hi];
    // Distinct leaves only: dedup within the root's leaf range.
    std::vector<VertexId> leaves(leaf_ids.begin() + static_cast<std::ptrdiff_t>(leaf_lo),
                                 leaf_ids.begin() + static_cast<std::ptrdiff_t>(leaf_hi));
    std::sort(leaves.begin(), leaves.end());
    leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
    for (VertexId leaf : leaves) {
      if (leaf != root) {
        builder.AddUndirectedEdge(root, leaf);
      }
    }
  }
  return builder.Build(GraphBuilder::Options{.build_in_edges = false,
                                             .sort_neighbors = true,
                                             .dedup_edges = true});
}

}  // namespace flexgraph
