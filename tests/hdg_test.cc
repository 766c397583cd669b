// Tests for HDG construction, the compact level storage, memory accounting,
// and the induced dependency graph.
#include "src/hdg/hdg.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/hdg/schema_tree.h"
#include "src/util/rng.h"

namespace flexgraph {
namespace {

TEST(SchemaTreeTest, FlatAndTyped) {
  SchemaTree flat = SchemaTree::Flat();
  EXPECT_TRUE(flat.is_flat());
  EXPECT_EQ(flat.num_leaf_types(), 1u);

  SchemaTree typed = SchemaTree::WithLeafTypes({"MP1", "MP2"});
  EXPECT_FALSE(typed.is_flat());
  EXPECT_EQ(typed.num_leaf_types(), 2u);
  EXPECT_EQ(typed.leaf_name(1), "MP2");
}

TEST(HdgBuilderTest, FlatHdgCollapsesLevels) {
  // Roots {0,1,2}; neighbors: 0→{5,6}, 2→{7}.
  HdgBuilder builder(SchemaTree::Flat(), {0, 1, 2});
  const VertexId l5[] = {5};
  const VertexId l6[] = {6};
  const VertexId l7[] = {7};
  builder.AddRecord(0, 0, l5);
  builder.AddRecord(2, 0, l7);
  builder.AddRecord(0, 0, l6);
  Hdg hdg = builder.Build();

  EXPECT_TRUE(hdg.flat());
  EXPECT_EQ(hdg.num_roots(), 3u);
  EXPECT_EQ(hdg.num_instances(), 3u);
  EXPECT_TRUE(hdg.instance_leaf_offsets().empty());
  // slot_offsets groups leaves per root: [0,2,2,3].
  ASSERT_EQ(hdg.slot_offsets().size(), 4u);
  EXPECT_EQ(hdg.slot_offsets()[1], 2u);
  EXPECT_EQ(hdg.slot_offsets()[2], 2u);  // root 1 empty
  EXPECT_EQ(hdg.slot_offsets()[3], 3u);
  EXPECT_EQ(hdg.leaf_vertex_ids()[2], 7u);
}

TEST(HdgBuilderTest, HierarchicalPaperExample) {
  // MAGNN Figure 3c: root A(0); MP1 instances {p1={A,D,C}}, MP2 instances
  // {p2={A,E,B}, p3={A,F,G}, p4={A,H,G}, p5={A,H,I}}.
  HdgBuilder builder(SchemaTree::WithLeafTypes({"MP1", "MP2"}), {0});
  const VertexId p1[] = {0, 3, 2};
  const VertexId p2[] = {0, 4, 1};
  const VertexId p3[] = {0, 5, 6};
  const VertexId p4[] = {0, 7, 6};
  const VertexId p5[] = {0, 7, 8};
  builder.AddRecord(0, 1, p2);  // out of order on purpose
  builder.AddRecord(0, 0, p1);
  builder.AddRecord(0, 1, p3);
  builder.AddRecord(0, 1, p4);
  builder.AddRecord(0, 1, p5);
  Hdg hdg = builder.Build();

  EXPECT_FALSE(hdg.flat());
  EXPECT_EQ(hdg.num_roots(), 1u);
  EXPECT_EQ(hdg.num_types(), 2u);
  EXPECT_EQ(hdg.num_instances(), 5u);
  EXPECT_EQ(hdg.num_leaf_refs(), 15u);

  // Slots: (A, MP1) has 1 instance, (A, MP2) has 4.
  ASSERT_EQ(hdg.slot_offsets().size(), 3u);
  EXPECT_EQ(hdg.slot_offsets()[1], 1u);
  EXPECT_EQ(hdg.slot_offsets()[2], 5u);

  // Instance 0 is the MP1 instance (sorted by type): leaves {0,3,2}.
  auto offs = hdg.instance_leaf_offsets();
  ASSERT_EQ(offs.size(), 6u);
  EXPECT_EQ(offs[1] - offs[0], 3u);
  EXPECT_EQ(hdg.leaf_vertex_ids()[0], 0u);
  EXPECT_EQ(hdg.leaf_vertex_ids()[1], 3u);
  EXPECT_EQ(hdg.leaf_vertex_ids()[2], 2u);
}

TEST(HdgBuilderTest, RecordForNonRootThrows) {
  HdgBuilder builder(SchemaTree::Flat(), {0, 1});
  const VertexId leaf[] = {0};
  EXPECT_THROW(builder.AddRecord(5, 0, leaf), CheckError);
}

TEST(HdgBuilderTest, TypeOutOfRangeThrows) {
  HdgBuilder builder(SchemaTree::Flat(), {0});
  const VertexId leaf[] = {0};
  EXPECT_THROW(builder.AddRecord(0, 1, leaf), CheckError);
}

TEST(HdgBuilderTest, DuplicateRootThrows) {
  EXPECT_THROW(HdgBuilder(SchemaTree::Flat(), {0, 0}), CheckError);
}

TEST(HdgFootprintTest, OptimizedSmallerThanNaive) {
  HdgBuilder builder(SchemaTree::WithLeafTypes({"MP1", "MP2"}), {0, 1, 2, 3});
  const VertexId leaves[] = {0, 1, 2};
  for (VertexId root = 0; root < 4; ++root) {
    for (uint32_t type = 0; type < 2; ++type) {
      builder.AddRecord(root, type, leaves);
    }
  }
  Hdg hdg = builder.Build();
  const auto fp = hdg.Footprint();
  // Elided-Dst: 8 instances × 4 bytes saved; global schema: 3 extra copies
  // avoided.
  EXPECT_LT(fp.TotalBytes(), fp.NaiveTotalBytes());
  EXPECT_EQ(fp.naive_in_between_bytes - fp.in_between_bytes, 8u * sizeof(VertexId));
  EXPECT_EQ(fp.naive_schema_bytes, 4u * fp.schema_bytes);
}

TEST(InducedGraphTest, ConnectsRootsToDistinctLeaves) {
  HdgBuilder builder(SchemaTree::WithLeafTypes({"MP1"}), {0, 1});
  const VertexId p1[] = {0, 3, 2};
  const VertexId p2[] = {0, 3, 4};
  builder.AddRecord(0, 0, p1);
  builder.AddRecord(0, 0, p2);
  Hdg hdg = builder.Build();
  CsrGraph induced = BuildInducedGraph(hdg, 6);
  // Root 0 links to {2,3,4} (self excluded, 3 deduped).
  auto nbrs = induced.OutNeighbors(0);
  EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()),
            (std::vector<VertexId>{2, 3, 4}));
  // Undirected: leaf 3 links back to 0.
  auto back = induced.OutNeighbors(3);
  EXPECT_EQ(std::vector<VertexId>(back.begin(), back.end()), (std::vector<VertexId>{0}));
  // Root 1 had no records → isolated.
  EXPECT_EQ(induced.OutDegree(1), 0u);
}

TEST(HdgBuilderTest, EmptyRootsProduceEmptySlots) {
  HdgBuilder builder(SchemaTree::Flat(), {0, 1, 2});
  Hdg hdg = builder.Build();
  EXPECT_EQ(hdg.num_instances(), 0u);
  EXPECT_EQ(hdg.slot_offsets().back(), 0u);
}

TEST(FlatHdgFromGraphTest, MatchesUdfBuiltHdg) {
  // The §7.8 fast path (input graph as HDG) must produce exactly the same
  // structure as running a 1-hop UDF through the record builder.
  GraphBuilder b(5);
  b.AddUndirectedEdge(0, 1);
  b.AddUndirectedEdge(0, 2);
  b.AddUndirectedEdge(1, 3);
  CsrGraph g = b.Build();

  Hdg fast = FlatHdgFromInNeighbors(g, {0, 1, 2, 3, 4});

  HdgBuilder builder(SchemaTree::Flat(), {0, 1, 2, 3, 4});
  for (VertexId v = 0; v < 5; ++v) {
    for (VertexId u : g.InNeighbors(v)) {
      const VertexId leaf[1] = {u};
      builder.AddRecord(v, 0, leaf);
    }
  }
  Hdg slow = builder.Build();

  EXPECT_TRUE(fast.flat());
  ASSERT_EQ(fast.slot_offsets().size(), slow.slot_offsets().size());
  for (std::size_t i = 0; i < fast.slot_offsets().size(); ++i) {
    EXPECT_EQ(fast.slot_offsets()[i], slow.slot_offsets()[i]);
  }
  ASSERT_EQ(fast.leaf_vertex_ids().size(), slow.leaf_vertex_ids().size());
  for (std::size_t i = 0; i < fast.leaf_vertex_ids().size(); ++i) {
    EXPECT_EQ(fast.leaf_vertex_ids()[i], slow.leaf_vertex_ids()[i]);
  }
}

TEST(FlatHdgFromGraphTest, SubsetOfRoots) {
  GraphBuilder b(4);
  b.AddUndirectedEdge(0, 1);
  b.AddUndirectedEdge(2, 3);
  CsrGraph g = b.Build();
  Hdg hdg = FlatHdgFromInNeighbors(g, {2, 0});
  EXPECT_EQ(hdg.num_roots(), 2u);
  EXPECT_EQ(hdg.root_vertex(0), 2u);
  // Root 2's only in-neighbor is 3; root 0's is 1.
  EXPECT_EQ(hdg.leaf_vertex_ids()[0], 3u);
  EXPECT_EQ(hdg.leaf_vertex_ids()[1], 1u);
}

// Property test: for random record sets, the frozen storage preserves every
// record exactly once with leaves in order.
class HdgRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(HdgRoundTripSweep, RecordsSurviveFreezing) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  const uint32_t num_roots = 8;
  const uint32_t num_types = 3;
  std::vector<VertexId> roots;
  for (uint32_t r = 0; r < num_roots; ++r) {
    roots.push_back(r * 2);  // non-contiguous graph ids
  }
  std::vector<std::string> names = {"t0", "t1", "t2"};
  HdgBuilder builder(SchemaTree::WithLeafTypes(names), roots);

  // expected[root][type] = multiset of leaf vectors.
  std::vector<std::vector<std::vector<std::vector<VertexId>>>> expected(
      num_roots, std::vector<std::vector<std::vector<VertexId>>>(num_types));
  const int num_records = 40;
  for (int i = 0; i < num_records; ++i) {
    const uint32_t root_rank = static_cast<uint32_t>(rng.NextBounded(num_roots));
    const uint32_t type = static_cast<uint32_t>(rng.NextBounded(num_types));
    std::vector<VertexId> leaves;
    const uint64_t len = 1 + rng.NextBounded(4);
    for (uint64_t l = 0; l < len; ++l) {
      leaves.push_back(static_cast<VertexId>(rng.NextBounded(100)));
    }
    builder.AddRecord(roots[root_rank], type, leaves);
    expected[root_rank][type].push_back(leaves);
  }
  Hdg hdg = builder.Build();
  EXPECT_EQ(hdg.num_instances(), static_cast<uint64_t>(num_records));

  auto slot_offsets = hdg.slot_offsets();
  auto inst_offsets = hdg.instance_leaf_offsets();
  auto leaf_ids = hdg.leaf_vertex_ids();
  for (uint32_t r = 0; r < num_roots; ++r) {
    for (uint32_t t = 0; t < num_types; ++t) {
      const std::size_t slot = r * num_types + t;
      const uint64_t lo = slot_offsets[slot];
      const uint64_t hi = slot_offsets[slot + 1];
      ASSERT_EQ(hi - lo, expected[r][t].size());
      // Collect stored leaf vectors for this slot and compare as multisets.
      std::vector<std::vector<VertexId>> stored;
      for (uint64_t i = lo; i < hi; ++i) {
        stored.emplace_back(leaf_ids.begin() + static_cast<std::ptrdiff_t>(inst_offsets[i]),
                            leaf_ids.begin() + static_cast<std::ptrdiff_t>(inst_offsets[i + 1]));
      }
      auto want = expected[r][t];
      std::sort(stored.begin(), stored.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(stored, want) << "root " << r << " type " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HdgRoundTripSweep, ::testing::Values(1, 2, 3, 7, 11));

struct EmittedRecord {
  uint32_t root_rank;
  uint32_t type;
  std::vector<VertexId> leaves;
};

// Records emitted root by root with ascending types (`in_slot_order`), as
// NeighborSelection emits them, or in random order. Some are single-leaf.
std::vector<EmittedRecord> RandomEmission(Rng& rng, uint32_t num_roots, uint32_t num_types,
                                          bool in_slot_order) {
  std::vector<EmittedRecord> records;
  for (int i = 0; i < 60; ++i) {
    const uint64_t len = rng.NextBounded(2) == 0 ? 1 : 1 + rng.NextBounded(4);
    std::vector<VertexId> leaves;
    for (uint64_t l = 0; l < len; ++l) {
      leaves.push_back(static_cast<VertexId>(rng.NextBounded(100)));
    }
    records.push_back({static_cast<uint32_t>(rng.NextBounded(num_roots)),
                       static_cast<uint32_t>(rng.NextBounded(num_types)), std::move(leaves)});
  }
  if (in_slot_order) {
    std::stable_sort(records.begin(), records.end(),
                     [](const EmittedRecord& a, const EmittedRecord& b) {
                       return a.root_rank != b.root_rank ? a.root_rank < b.root_rank
                                                         : a.type < b.type;
                     });
  }
  return records;
}

// Freezing records in a builder and any split of them into parts, in
// emission order, gives the layout of a stable sort by (root rank, type).
TEST(HdgBuilderTest, PartsFreezeLikeOneStableSortedBuilder) {
  const std::vector<VertexId> roots = {4, 0, 9, 2, 7};
  const std::vector<std::string> names = {"t0", "t1", "t2"};
  const auto num_types = static_cast<uint32_t>(names.size());
  for (bool in_slot_order : {true, false}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      const std::vector<EmittedRecord> records =
          RandomEmission(rng, static_cast<uint32_t>(roots.size()), num_types, in_slot_order);

      std::vector<EmittedRecord> sorted = records;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const EmittedRecord& a, const EmittedRecord& b) {
                         return a.root_rank != b.root_rank ? a.root_rank < b.root_rank
                                                           : a.type < b.type;
                       });
      std::vector<uint64_t> want_slots(roots.size() * num_types + 1, 0);
      std::vector<uint64_t> want_inst{0};
      std::vector<VertexId> want_leaves;
      for (const EmittedRecord& rec : sorted) {
        ++want_slots[rec.root_rank * num_types + rec.type + 1];
        want_leaves.insert(want_leaves.end(), rec.leaves.begin(), rec.leaves.end());
        want_inst.push_back(want_leaves.size());
      }
      for (std::size_t s = 1; s < want_slots.size(); ++s) {
        want_slots[s] += want_slots[s - 1];
      }

      for (std::size_t num_parts : {0, 1, 3}) {
        HdgBuilder builder(SchemaTree::WithLeafTypes(names), roots);
        std::vector<HdgBuilder> parts;
        for (std::size_t p = 0; p < num_parts; ++p) {
          parts.push_back(builder.NewPart());
        }
        for (std::size_t i = 0; i < records.size(); ++i) {
          // Contiguous runs of the emission go to the builder, then each part.
          const std::size_t bucket = i * (num_parts + 1) / records.size();
          HdgBuilder& target = bucket == 0 ? builder : parts[bucket - 1];
          target.AddRecord(roots[records[i].root_rank], records[i].type, records[i].leaves);
        }
        const Hdg hdg = builder.Build(parts);
        const std::string what = std::string(in_slot_order ? "sorted" : "unsorted") +
                                 " emission, seed " + std::to_string(seed) + ", " +
                                 std::to_string(num_parts) + " parts";
        EXPECT_FALSE(hdg.flat()) << what;
        EXPECT_TRUE(std::equal(hdg.roots().begin(), hdg.roots().end(), roots.begin(),
                               roots.end()))
            << what;
        EXPECT_TRUE(std::equal(hdg.slot_offsets().begin(), hdg.slot_offsets().end(),
                               want_slots.begin(), want_slots.end()))
            << what;
        EXPECT_TRUE(std::equal(hdg.instance_leaf_offsets().begin(),
                               hdg.instance_leaf_offsets().end(), want_inst.begin(),
                               want_inst.end()))
            << what;
        EXPECT_TRUE(std::equal(hdg.leaf_vertex_ids().begin(), hdg.leaf_vertex_ids().end(),
                               want_leaves.begin(), want_leaves.end()))
            << what;
      }
    }
  }
}

TEST(HdgBuilderTest, OnlyTheOwningBuilderBuilds) {
  HdgBuilder builder(SchemaTree::Flat(), {0, 1});
  HdgBuilder part = builder.NewPart();
  EXPECT_THROW(part.Build(), CheckError);
  HdgBuilder other(SchemaTree::Flat(), {0, 1});
  std::vector<HdgBuilder> foreign;
  foreign.push_back(other.NewPart());
  EXPECT_THROW(builder.Build(foreign), CheckError);
}

}  // namespace
}  // namespace flexgraph
