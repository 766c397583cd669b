// Hierarchical dependency graph storage (paper §3.1, §4.1, Figure 9).
//
// An Hdg holds the HDG(v) of *all roots of one partition* in a single
// level-structured container:
//
//   level 0  roots                        R vertices (input-graph ids)
//   level 1  schema-leaf slots            R × T implicit vertices (one slot
//                                         per (root, neighbor type); never
//                                         materialized — the schema tree is
//                                         global and shared)
//   level 2  neighbor instances           I vertices; each has exactly one
//                                         out-edge to its (root, type) slot,
//                                         so after ordering instances by slot
//                                         the Dst array is elided and only
//                                         `slot_offsets` ([R·T+1]) is kept
//   level 3  leaf vertices                input-graph ids, CSC per instance:
//                                         `instance_leaf_offsets` ([I+1]) +
//                                         `leaf_vertex_ids`
//
// Flat models (GCN, PinSage) collapse levels 1–2: each "instance" is a single
// input-graph vertex of the unique type, so only `slot_offsets` (then indexed
// per root) and `leaf_vertex_ids` are stored.
#ifndef SRC_HDG_HDG_H_
#define SRC_HDG_HDG_H_

#include <memory>
#include <span>
#include <vector>

#include "src/graph/csr_graph.h"
#include "src/hdg/schema_tree.h"

namespace flexgraph {

class Hdg {
 public:
  Hdg() = default;

  bool flat() const { return flat_; }
  uint32_t num_roots() const { return static_cast<uint32_t>(roots_.size()); }
  uint32_t num_types() const { return schema_.num_leaf_types(); }
  const SchemaTree& schema() const { return schema_; }

  std::span<const VertexId> roots() const { return roots_; }
  VertexId root_vertex(uint32_t local_rank) const {
    FLEX_CHECK_LT(local_rank, roots_.size());
    return roots_[local_rank];
  }

  // Number of neighbor instances (level 2). For flat HDGs this equals the
  // number of leaf references.
  uint64_t num_instances() const {
    return slot_offsets_.empty() ? 0 : slot_offsets_.back();
  }

  uint64_t num_leaf_refs() const { return leaf_vertex_ids_.size(); }

  // [R·T + 1]: instances of slot s are [slot_offsets[s], slot_offsets[s+1]).
  // Slot s = root_rank · T + type.
  std::span<const uint64_t> slot_offsets() const { return slot_offsets_; }

  // [I + 1]: leaves of instance i are leaf_vertex_ids[inst_off[i] .. +1).
  // Empty for flat HDGs (instance i *is* leaf i).
  std::span<const uint64_t> instance_leaf_offsets() const { return instance_leaf_offsets_; }

  // Input-graph vertex ids at the bottom level.
  std::span<const VertexId> leaf_vertex_ids() const { return leaf_vertex_ids_; }

  // [S + 1] CSC offsets of the bottom aggregation level: `slot_offsets` for
  // flat HDGs (the instance and root levels coincide), `instance_leaf_offsets`
  // otherwise. This is the segment layout every bottom-level kernel (and the
  // ExecutionPlan compiler) consumes.
  std::span<const uint64_t> bottom_offsets() const {
    return flat_ ? std::span<const uint64_t>(slot_offsets_)
                 : std::span<const uint64_t>(instance_leaf_offsets_);
  }

  // Number of bottom-level segments (instances, or roots for flat HDGs).
  uint64_t num_bottom_segments() const {
    const auto offs = bottom_offsets();
    return offs.empty() ? 0 : offs.size() - 1;
  }

  // ---- Memory accounting (Table 5 + storage-optimization ablation) ----
  struct MemoryFootprint {
    std::size_t bottom_bytes = 0;      // instance_leaf_offsets + leaf_vertex_ids
    std::size_t in_between_bytes = 0;  // slot_offsets (Dst elided)
    std::size_t schema_bytes = 0;      // one global schema tree
    std::size_t roots_bytes = 0;

    // What the un-optimized layout would cost:
    std::size_t naive_in_between_bytes = 0;  // explicit per-instance Dst array
    std::size_t naive_schema_bytes = 0;      // one schema copy per root

    std::size_t TotalBytes() const {
      return bottom_bytes + in_between_bytes + schema_bytes + roots_bytes;
    }
    std::size_t NaiveTotalBytes() const {
      return bottom_bytes + naive_in_between_bytes + naive_schema_bytes + roots_bytes;
    }
  };

  MemoryFootprint Footprint() const;

 private:
  friend class HdgBuilder;
  friend Hdg FlatHdgFromInNeighbors(const CsrGraph& graph, std::vector<VertexId> roots);

  bool flat_ = true;
  SchemaTree schema_ = SchemaTree::Flat();
  std::vector<VertexId> roots_;
  std::vector<uint64_t> slot_offsets_;
  std::vector<uint64_t> instance_leaf_offsets_;
  std::vector<VertexId> leaf_vertex_ids_;
};

// Accumulates the (root, nei, nei_type) records emitted by NeighborSelection
// UDFs (paper §4.1: "a set of formatted records, each representing one
// 'neighbor'") and freezes them into the compact level storage.
//
// A builder may hand out parts: further record buffers over its schema and
// roots, so NeighborSelection can give each chunk of roots its own buffer
// and freeze them all at once, in emission order, with Build(parts).
class HdgBuilder {
 public:
  HdgBuilder(SchemaTree schema, std::vector<VertexId> roots);

  // An empty record buffer that checks its records against this builder's
  // schema and roots without copying them. This builder must outlive it.
  HdgBuilder NewPart() const;

  std::span<const VertexId> roots() const { return index_->roots; }

  // Appends one neighbor record: `leaves` are the input-graph vertices the
  // instance is made of (a single vertex for flat models, a path for MAGNN,
  // an anchor-set for P-GNN, ...).
  void AddRecord(VertexId root, uint32_t nei_type, std::span<const VertexId> leaves);

  uint64_t num_records() const { return records_.size(); }
  uint64_t num_leaves() const { return leaves_.size(); }

  void Reserve(uint64_t records, uint64_t leaves);

  // Drops every record, keeping the storage.
  void Clear();

  // Freezes this builder's records followed by each part's, in that order,
  // into the level arrays. Instances are ordered by (root rank, type) —
  // giving each exactly one implicit out-edge position — stably, so records
  // of one slot keep their emission order. Only a builder made by the
  // constructor can build; it and the parts are consumed.
  Hdg Build(std::span<HdgBuilder> parts = {});

 private:
  struct Record {
    uint32_t root_rank;
    uint32_t nei_type;
    uint64_t leaf_begin;
    uint32_t leaf_count;
  };

  // What records are checked against; shared by a builder and its parts.
  struct Index {
    SchemaTree schema;
    std::vector<VertexId> roots;
    std::vector<uint32_t> root_rank;  // graph id → rank + 1 (0 = not a root)
  };

  explicit HdgBuilder(const Index* index) : index_(index) {}

  std::unique_ptr<Index> owned_index_;  // null in a part
  const Index* index_;
  std::vector<Record> records_;
  std::vector<VertexId> leaves_;
};

// Fast path for DNFA models (paper §7.8: "FlexGraph does not construct extra
// HDGs for GCN, since the input graph serves the desired purpose"): builds a
// flat Hdg directly from the graph's in-neighbor CSC arrays — no records, no
// sort, just slicing the adjacency per root.
Hdg FlatHdgFromInNeighbors(const CsrGraph& graph, std::vector<VertexId> roots);

// The induced graph used by the ADB balancer (paper §5): each HDG root is
// connected (undirected) to the distinct leaf vertices of its HDG — the only
// cross-partition data dependencies GNN training has.
CsrGraph BuildInducedGraph(const Hdg& hdg, VertexId num_graph_vertices);

}  // namespace flexgraph

#endif  // SRC_HDG_HDG_H_
