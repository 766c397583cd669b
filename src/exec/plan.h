// ExecutionPlan — the level-plan IR of the planned execution layer.
//
// Compiled once per (model, HDG, strategy) by the pass pipeline in
// src/exec/passes/ (analyze → lower → fuse → finalize over a mutable
// PlanDraft, frozen into this type at the end), the plan records for every
// HDG aggregation level which kernel class runs it, the segment boundaries it
// reduces over, precompiled index tensors (gather/scatter indices built once
// instead of on every call), fixed parallel chunk boundaries, and the inverse
// leaf→segment map that makes the bottom-level backward a deterministic
// parallel gather. It also carries a workspace-size estimate so the arena can
// be reserved up front and steady-state epochs run without heap allocation.
// The plan is the only way aggregation runs: HdgAggregator requires one.
//
// Determinism contract: chunk boundaries live in segment space — a chunk
// never straddles a segment, so each output row is written by exactly one
// task and the per-segment accumulation order is the same as the sequential
// kernels'. Results are bitwise identical across thread counts.
//
// Immutability contract: every accessor is const and the fields are private;
// the only writer is the pass pipeline's PlanDraft, and fglint confines that
// type to src/exec/passes/. A frozen plan is therefore safe for any number
// of concurrent readers (FLEXGRAPH_SHARED_AFTER_FREEZE below).
#ifndef SRC_EXEC_PLAN_H_
#define SRC_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/exec/exec_strategy.h"
#include "src/exec/chunks.h"
#include "src/exec/cpu_features.h"
#include "src/hdg/hdg.h"
#include "src/util/thread_annotations.h"

namespace flexgraph {

// Kernel class chosen for one HDG level (paper §4.2's fusion / sparse /
// dense trichotomy).
enum class LevelKernelClass {
  kFused,              // fused gather+reduce over leaf ids (FA/HA bottom)
  kGatherSegmentReduce,  // materialized gather then segment reduce (SA bottom)
  kSegmentReduce,      // contiguous CSC segment reduce (instance level)
  kScatter,            // explicit scatter with index tensor (SA levels)
  kDenseGroupReduce,   // reshape+reduce over fixed-size groups (HA schema)
};

const char* LevelKernelClassName(LevelKernelClass k);

// Shared immutable index vectors: compiled once, referenced by every epoch's
// autograd closures without copying.
using U32Vec = std::shared_ptr<const std::vector<uint32_t>>;
using U64Vec = std::shared_ptr<const std::vector<uint64_t>>;
using I64Vec = std::shared_ptr<const std::vector<int64_t>>;
using IdVec = std::shared_ptr<const std::vector<VertexId>>;

// Common-subtree fusion program for one bottom level (HAG-style, mined by
// src/exec/passes/fuse.cc). Instead of re-reducing every root's full leaf
// list, shared leaf-list *prefixes* are materialized once as partial rows and
// the root segments re-read the partial. Extended-id convention throughout:
// an id < base_rows reads input row id, an id >= base_rows reads partial row
// (id - base_rows).
//
// Prefix-only sharing keeps the forward bitwise identical to the unfused
// reduce: sum/mean segments left-fold into a zeroed row, a zero-initialized
// left-fold can never produce -0.0 (x+y rounds to -0 only when both operands
// are -0, and 0 + a0 is never -0), so seeding the fold with the materialized
// prefix value reproduces the unfused bit pattern exactly. Mean segments
// scale by the ORIGINAL width (scale_offsets).
struct FusionPlan {
  int64_t base_rows = 0;     // extended ids below this read the input tensor
  int64_t num_partials = 0;  // materialized shared prefixes

  // Partial build program: partial p sums extended rows
  // partial_ids[partial_offsets[p] .. partial_offsets[p+1]). A partial only
  // references strictly lower-indexed partials, and partials are grouped into
  // dependency levels: level L covers partial indices
  // [level_ends[L-1], level_ends[L]) (level 0 starts at 0) and references
  // only input rows and partials from levels < L, so each level is a
  // parallel segment-reduce over level_chunks[L] (absolute partial indices).
  U64Vec partial_offsets;  // [num_partials + 1]
  U32Vec partial_ids;      // extended ids
  std::vector<int64_t> level_ends;
  std::vector<I64Vec> level_chunks;

  // Rewritten root reduce: segment s sums extended rows
  // ids[offsets[s] .. offsets[s+1]), then mean-scales by the original width
  // scale_offsets[s+1] - scale_offsets[s]. Same segment count and order as
  // the unfused level; chunks are re-balanced for the rewritten ref counts.
  U64Vec offsets;        // [num_segments + 1]
  U32Vec ids;            // extended ids
  U64Vec scale_offsets;  // original segment offsets (aliases the level's)
  I64Vec chunks;

  // Inverse (extended source → segment) map of the rewritten root reduce,
  // for the backward's parallel per-source gather. src_rows = base_rows +
  // num_partials; partial rows then distribute their gradient to their build
  // refs sequentially, deepest level first.
  U64Vec src_offsets;  // [src_rows + 1]
  U32Vec src_edge_segments;
  I64Vec src_chunks;
  int64_t src_rows = 0;

  // Static ref accounting (the bench's leaf_ref_ratio): refs the unfused
  // level reads per execution vs. the fused program (rewritten root refs +
  // partial build refs).
  uint64_t leaf_refs_before = 0;
  uint64_t leaf_refs_after = 0;
};

// Everything needed to execute one aggregation level. In a compiled plan
// every index array below is non-null; an array the level does not use, or
// one over zero rows (roots without leaves), is present and empty.
struct LevelPlan {
  LevelKernelClass kernel = LevelKernelClass::kFused;
  int64_t num_segments = 0;  // output rows
  int64_t input_rows = 0;    // rows consumed (leaf refs for the bottom level)
  int64_t group = 0;         // group size for kDenseGroupReduce

  U64Vec offsets;       // [S+1] segment boundaries over the input rows
                        // (the schema level's are [0, T, 2T, …])
  IdVec leaf_ids;       // bottom level: graph vertex id per leaf ref, which
                        // is also the gather index tensor
  U32Vec scatter_index; // instance and schema levels: destination segment
                        // per input row (scatter paths). Empty at the bottom
                        // level, which reduces over its offsets only

  // Fixed parallel chunking: chunk c covers segments
  // [chunks[c], chunks[c+1]). Balanced by leaf count, independent of the
  // thread count.
  I64Vec chunks;

  // Inverse (leaf→segment) map for the bottom-level backward: source row v
  // contributed to segments src_edge_segments[src_offsets[v] ..
  // src_offsets[v+1]), listed in ascending edge order so the parallel
  // per-source gather accumulates in exactly the sequential kernel's order.
  U64Vec src_offsets;        // [src_rows + 1]
  U32Vec src_edge_segments;
  I64Vec src_chunks;         // chunk boundaries over source rows
  int64_t src_rows = 0;

  // Optional common-subtree fusion program (bottom level of FA/HA plans
  // only; null when fusion is off or found nothing worth materializing).
  // All the original arrays above are kept untouched by fusion —
  // max/LSTM/attention aggregators and the SA path keep reading them.
  std::shared_ptr<const FusionPlan> fusion;
};

// Knobs for the pass pipeline. DefaultPlanOptions() resolves the environment:
// FLEXGRAPH_FUSE=off|0 disables the fusion pass (default on).
struct PlanOptions {
  bool fuse = true;
};

PlanOptions DefaultPlanOptions();

// The pipeline's mutable mirror (src/exec/passes/pass.h). Forward-declared
// only so Freeze() can be befriended below; naming PlanDraft anywhere else
// outside src/exec/passes/ is a lint error (fglint rule plan-draft).
struct PlanDraft;  // fglint-allow: plan-draft

// The frozen plan: private fields, const accessors, no mutating API. Built
// exclusively by PlanDraft::Freeze() in the pass pipeline.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;

  const std::string& model_name() const { return model_name_; }
  ExecStrategy strategy() const { return strategy_; }
  bool flat() const { return flat_; }

  const LevelPlan& bottom() const { return bottom_; }
  bool has_instance() const { return has_instance_; }
  const LevelPlan& instance() const { return instance_; }
  bool has_schema() const { return has_schema_; }
  const LevelPlan& schema() const { return schema_; }

  // Flat HDGs: per-edge root vertex id (GAT's destination-score broadcast).
  const U32Vec& edge_dst_index() const { return edge_dst_index_; }

  // Bottom-level fusion program, or nullptr when not fused.
  const FusionPlan* fusion() const { return bottom_.fusion.get(); }

  // Arena sizing hint: estimated forward+backward workspace bytes per layer
  // for feature dimension `planned_dim` (see the finalize pass).
  std::size_t planned_bytes() const { return planned_bytes_; }
  int64_t planned_dim() const { return planned_dim_; }
  double compile_seconds() const { return compile_seconds_; }

  // Kernel ISA dispatched at compile time (simd::ActiveIsa()); every level's
  // kernels run through this table. Recorded for provenance — reports and the
  // trainer's stage table show which vector unit the run actually used.
  simd::IsaLevel isa() const { return isa_; }

 private:
  // The only writer; confined to src/exec/passes/.
  friend struct PlanDraft;  // fglint-allow: plan-draft

  std::string model_name_;
  ExecStrategy strategy_ = ExecStrategy::kHybrid;
  bool flat_ = true;
  LevelPlan bottom_;
  bool has_instance_ = false;
  LevelPlan instance_;   // hierarchical HDGs only
  bool has_schema_ = false;
  LevelPlan schema_;     // hierarchical HDGs only
  U32Vec edge_dst_index_;
  std::size_t planned_bytes_ = 0;
  int64_t planned_dim_ = 0;
  double compile_seconds_ = 0.0;
  simd::IsaLevel isa_ = simd::IsaLevel::kScalar;
};

// Compilation and the PlanDraft it runs over are single-threaded; the frozen
// ExecutionPlan is all-const and safe for concurrent readers — kernel worker
// threads and (the serving roadmap item) request threads read one plan
// simultaneously with no locking.
FLEXGRAPH_SHARED_AFTER_FREEZE(ExecutionPlan);

// Compiles the plan for one (model, HDG, strategy) triple through the pass
// pipeline. `hint_dim` is the feature width used for the workspace-size
// estimate (pass the model's widest layer dimension; the estimate is a
// reservation hint, not a cap).
ExecutionPlan CompileExecutionPlan(const std::string& model_name, const Hdg& hdg,
                                   ExecStrategy strategy, int64_t hint_dim = 64);
ExecutionPlan CompileExecutionPlan(const std::string& model_name, const Hdg& hdg,
                                   ExecStrategy strategy, int64_t hint_dim,
                                   const PlanOptions& options);

}  // namespace flexgraph

#endif  // SRC_EXEC_PLAN_H_
