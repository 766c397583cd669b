// Structural-invariant verifier for HDGs and compiled execution plans.
//
// The HDG storage format (paper §4.2) and the level-plan IR rest on a small
// set of invariants that every kernel assumes without checking:
//
//   * each level's CSC Offset array is monotone, starts at 0, and its last
//     entry equals the level's input row count;
//   * the elided in-between Dst property — instances are sorted by
//     destination slot, so the per-row destination (scatter_index, carried
//     by the instance and schema levels) is non-decreasing and consistent
//     with the Offset array;
//   * the schema tree is stored once and shared across roots, never
//     duplicated per root;
//   * leaf ids (the bottom level's gather index) and scatter index tensors
//     only address rows that exist;
//   * the leaf→segment inverse map really is the inverse of the forward
//     reduce (same edges, ascending edge order within each source);
//   * the compiled workspace estimate covers the arena's measured high water.
//
// VerifyHdg/VerifyPlan re-check all of this in O(E) and return structured
// diagnostics (which level, which array, which element) instead of asserting,
// so a corrupt structure is reported precisely and the caller chooses whether
// to abort. They run automatically at plan-compile time in debug builds
// (FLEXGRAPH_VERIFY_PLANS, default for NDEBUG-less builds) and behind
// --verify-plan in tools/flexgraph_train.
#ifndef SRC_EXEC_VERIFY_H_
#define SRC_EXEC_VERIFY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/exec/plan.h"
#include "src/hdg/hdg.h"

namespace flexgraph {

// One violated invariant: which plan/HDG level, which array inside it, and —
// when the failure is element-local — the offending index.
struct VerifyIssue {
  std::string level;    // "hdg", "bottom", "instance", "schema", "workspace"
  std::string array;    // offending structure, e.g. "offsets", "scatter_index"
  int64_t index = -1;   // offending element, -1 for structural failures
  std::string message;  // human-readable diagnostic with the observed values
};

struct VerifyResult {
  std::vector<VerifyIssue> issues;

  bool ok() const { return issues.empty(); }
  // All diagnostics, one per line, as "level.array[index]: message".
  std::string Summary() const;
};

// Non-owning view of HDG level storage. Hdg keeps its arrays private (only
// builders mutate them), so the verifier works on a view — which also lets
// the negative-path tests assemble deliberately corrupt instances.
struct HdgView {
  bool flat = true;
  uint32_t num_roots = 0;
  uint32_t num_types = 0;
  std::span<const VertexId> roots;
  std::span<const uint64_t> slot_offsets;
  std::span<const uint64_t> instance_leaf_offsets;
  std::span<const VertexId> leaf_vertex_ids;
  // Schema-sharing evidence from Hdg::Footprint(): one shared tree means
  // naive_schema_bytes == num_roots * schema_bytes exactly.
  std::size_t schema_bytes = 0;
  std::size_t naive_schema_bytes = 0;
};

// Builds the view over a frozen Hdg (spans borrow; keep the Hdg alive).
HdgView MakeHdgView(const Hdg& hdg);

// Checks the HDG storage invariants. `num_graph_vertices` bounds the leaf
// vertex ids (pass graph.num_vertices()).
VerifyResult VerifyHdg(const HdgView& view, uint64_t num_graph_vertices);
VerifyResult VerifyHdg(const Hdg& hdg, uint64_t num_graph_vertices);

// Checks the compiled plan against the HDG it was compiled from: per-level
// offset/scatter/gather invariants, chunk boundaries, the inverse map, and
// cross-consistency (plan arrays must mirror the HDG's level storage).
VerifyResult VerifyPlan(const ExecutionPlan& plan, const HdgView& view,
                        uint64_t num_graph_vertices);
VerifyResult VerifyPlan(const ExecutionPlan& plan, const Hdg& hdg,
                        uint64_t num_graph_vertices);

// Post-execution check: the plan's workspace estimate must cover the arena's
// measured high water (pass workspace.high_water_bytes() after at least one
// epoch has run; plain bytes keep this library independent of src/tensor).
VerifyResult VerifyWorkspace(const ExecutionPlan& plan, std::size_t high_water_bytes);

}  // namespace flexgraph

#endif  // SRC_EXEC_VERIFY_H_
