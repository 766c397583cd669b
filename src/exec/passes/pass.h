// The plan compiler's pass pipeline. CompileExecutionPlan delegates here:
//
//   RunPlanPipeline
//     ├─ AnalyzePass   — HDG leaf/degree/overlap statistics (src/hdg/stats),
//     │                  fusion budget heuristic; writes PassContext only
//     ├─ LowerPass     — HDG levels → LevelDrafts: segment offsets, leaf ids,
//     │                  scatter index tensors, inverse leaf→segment map,
//     │                  chunk tables, GAT's edge_dst index
//     ├─ FusePass      — optimize: HAG-style common-subtree fusion; mines
//     │                  shared leaf-list prefixes and builds the FusionPlan
//     │                  (no-op when options.fuse is off, the strategy is
//     │                  sparse, or nothing clears the cost model)
//     └─ FinalizePass  — workspace-size estimate, ISA stamp, plan metrics
//   → PlanDraft::Freeze() moves the draft into the immutable ExecutionPlan
//
// PlanDraft is the ONLY mutable view of a plan, and fglint (rule plan-draft)
// confines the name to this directory — everything outside the pipeline sees
// the frozen, const-accessor-only ExecutionPlan. Tests are exempt from the
// lint walk and build corrupt drafts on purpose (tests/verify_test.cc).
#ifndef SRC_EXEC_PASSES_PASS_H_
#define SRC_EXEC_PASSES_PASS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/exec/plan.h"
#include "src/hdg/stats.h"
#include "src/util/thread_annotations.h"

namespace flexgraph {

// Mutable mirror of LevelPlan: plain vectors while passes build and rewrite,
// shared as immutable at freeze.
struct LevelDraft {
  LevelKernelClass kernel = LevelKernelClass::kFused;
  int64_t num_segments = 0;
  int64_t input_rows = 0;
  int64_t group = 0;

  std::vector<uint64_t> offsets;
  std::vector<VertexId> leaf_ids;
  std::vector<uint32_t> scatter_index;
  std::vector<int64_t> chunks;

  std::vector<uint64_t> src_offsets;
  std::vector<uint32_t> src_edge_segments;
  std::vector<int64_t> src_chunks;
  int64_t src_rows = 0;

  // Every vector freezes to a non-null shared array, empty ones included
  // (only the bottom level fills its inverse map, for instance).
  LevelPlan Freeze() &&;
};

// Mutable mirror of FusionPlan (see plan.h for the field semantics).
struct FusionDraft {
  int64_t base_rows = 0;
  int64_t num_partials = 0;
  std::vector<uint64_t> partial_offsets;
  std::vector<uint32_t> partial_ids;
  std::vector<int64_t> level_ends;
  std::vector<std::vector<int64_t>> level_chunks;
  std::vector<uint64_t> offsets;
  std::vector<uint32_t> ids;
  std::vector<int64_t> chunks;
  std::vector<uint64_t> src_offsets;
  std::vector<uint32_t> src_edge_segments;
  std::vector<int64_t> src_chunks;
  int64_t src_rows = 0;
  uint64_t leaf_refs_before = 0;
  uint64_t leaf_refs_after = 0;
};

// The pipeline's working state. Single-threaded by design: passes mutate it
// freely in order; nothing escapes until Freeze().
struct PlanDraft {
  FLEXGRAPH_NOT_THREAD_SAFE(PlanDraft);

  std::string model_name;
  ExecStrategy strategy = ExecStrategy::kHybrid;
  bool flat = true;

  LevelDraft bottom;
  bool has_instance = false;
  LevelDraft instance;
  bool has_schema = false;
  LevelDraft schema;

  std::vector<uint32_t> edge_dst_index;
  bool has_edge_dst = false;

  bool has_fusion = false;
  FusionDraft fusion;

  std::size_t planned_bytes = 0;
  int64_t planned_dim = 0;
  double compile_seconds = 0.0;
  simd::IsaLevel isa = simd::IsaLevel::kScalar;

  // Moves the draft into the immutable plan (the befriended writer —
  // nothing else can touch ExecutionPlan's fields).
  ExecutionPlan Freeze() &&;
};

// Analysis results shared between passes (never stored in the plan).
struct PassContext {
  HdgLeafStats bottom_stats;
  int64_t fuse_budget = 0;  // partial cap resolved by the analyze pass
};

void AnalyzePass(const Hdg& hdg, PassContext& ctx);
void LowerPass(PlanDraft& draft, const Hdg& hdg);
void FusePass(PlanDraft& draft, const PlanOptions& options, const PassContext& ctx);
void FinalizePass(PlanDraft& draft);

// The driver CompileExecutionPlan calls: runs the four passes in order over a
// fresh draft, freezes it, then (debug builds) re-verifies the frozen plan
// against the HDG and emits the exec.plan_* metrics.
ExecutionPlan RunPlanPipeline(const std::string& model_name, const Hdg& hdg,
                              ExecStrategy strategy, int64_t hint_dim,
                              const PlanOptions& options);

}  // namespace flexgraph

#endif  // SRC_EXEC_PASSES_PASS_H_
