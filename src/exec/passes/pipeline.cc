// The pipeline driver and the freeze boundary: runs analyze → lower →
// optimize (fuse) → finalize over a PlanDraft, then moves the draft into the
// immutable ExecutionPlan. Debug builds re-verify every frozen plan against
// its HDG before it escapes (O(E), free relative to the build it guards);
// release callers opt in through VerifyPlan directly or the trainer's
// --verify-plan flag.
#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "src/exec/passes/pass.h"
#include "src/exec/verify.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/timer.h"

#if !defined(NDEBUG) && !defined(FLEXGRAPH_VERIFY_PLANS)
#define FLEXGRAPH_VERIFY_PLANS 1
#endif

namespace flexgraph {
namespace {

// An empty array freezes as present and empty, never as null: a level
// whose roots have no leaves (a small partition's worker) is still a level
// the executor runs, and every kernel dereferences its arrays.
template <typename T>
std::shared_ptr<const std::vector<T>> Shared(std::vector<T> v) {
  return std::make_shared<const std::vector<T>>(std::move(v));
}

}  // namespace

LevelPlan LevelDraft::Freeze() && {
  LevelPlan level;
  level.kernel = kernel;
  level.num_segments = num_segments;
  level.input_rows = input_rows;
  level.group = group;
  level.offsets = Shared(std::move(offsets));
  level.leaf_ids = Shared(std::move(leaf_ids));
  level.scatter_index = Shared(std::move(scatter_index));
  level.chunks = Shared(std::move(chunks));
  level.src_offsets = Shared(std::move(src_offsets));
  level.src_edge_segments = Shared(std::move(src_edge_segments));
  level.src_chunks = Shared(std::move(src_chunks));
  level.src_rows = src_rows;
  return level;
}

ExecutionPlan PlanDraft::Freeze() && {
  ExecutionPlan plan;
  plan.model_name_ = std::move(model_name);
  plan.strategy_ = strategy;
  plan.flat_ = flat;
  plan.bottom_ = std::move(bottom).Freeze();
  plan.has_instance_ = has_instance;
  if (has_instance) {
    plan.instance_ = std::move(instance).Freeze();
  }
  plan.has_schema_ = has_schema;
  if (has_schema) {
    plan.schema_ = std::move(schema).Freeze();
  }
  if (has_edge_dst) {
    plan.edge_dst_index_ = Shared(std::move(edge_dst_index));
  }
  if (has_fusion) {
    auto fp = std::make_shared<FusionPlan>();
    fp->base_rows = fusion.base_rows;
    fp->num_partials = fusion.num_partials;
    fp->partial_offsets = Shared(std::move(fusion.partial_offsets));
    fp->partial_ids = Shared(std::move(fusion.partial_ids));
    fp->level_ends = std::move(fusion.level_ends);
    for (std::vector<int64_t>& chunks : fusion.level_chunks) {
      fp->level_chunks.push_back(Shared(std::move(chunks)));
    }
    fp->offsets = Shared(std::move(fusion.offsets));
    fp->ids = Shared(std::move(fusion.ids));
    // Mean segments scale by the ORIGINAL width; alias the frozen level's
    // offsets rather than copying them.
    fp->scale_offsets = plan.bottom_.offsets;
    fp->chunks = Shared(std::move(fusion.chunks));
    fp->src_offsets = Shared(std::move(fusion.src_offsets));
    fp->src_edge_segments = Shared(std::move(fusion.src_edge_segments));
    fp->src_chunks = Shared(std::move(fusion.src_chunks));
    fp->src_rows = fusion.src_rows;
    fp->leaf_refs_before = fusion.leaf_refs_before;
    fp->leaf_refs_after = fusion.leaf_refs_after;
    plan.bottom_.fusion = std::move(fp);
  }
  plan.planned_bytes_ = planned_bytes;
  plan.planned_dim_ = planned_dim;
  plan.compile_seconds_ = compile_seconds;
  plan.isa_ = isa;
  return plan;
}

ExecutionPlan RunPlanPipeline(const std::string& model_name, const Hdg& hdg,
                              ExecStrategy strategy, int64_t hint_dim,
                              const PlanOptions& options) {
  WallTimer compile_timer;
  PlanDraft draft;
  draft.model_name = model_name;
  draft.strategy = strategy;
  draft.flat = hdg.flat();
  draft.planned_dim = std::max<int64_t>(1, hint_dim);

  // Each pass's seconds go to its own histogram, so a pass's compile cost can
  // be weighed against what it saves. (FLEX_HIST_OBSERVE binds its histogram
  // once per call site, hence one site per pass.)
  PassContext ctx;
  WallTimer pass_timer;
  AnalyzePass(hdg, ctx);
  FLEX_HIST_OBSERVE("exec.plan_analyze_seconds", pass_timer.ElapsedSeconds());
  pass_timer.Reset();
  LowerPass(draft, hdg);
  FLEX_HIST_OBSERVE("exec.plan_lower_seconds", pass_timer.ElapsedSeconds());
  pass_timer.Reset();
  FusePass(draft, options, ctx);
  FLEX_HIST_OBSERVE("exec.plan_fuse_seconds", pass_timer.ElapsedSeconds());
  pass_timer.Reset();
  FinalizePass(draft);
  FLEX_HIST_OBSERVE("exec.plan_finalize_seconds", pass_timer.ElapsedSeconds());

  // Stamped pre-freeze: the debug-only verify hook below is excluded so the
  // reported compile time matches release builds.
  draft.compile_seconds = compile_timer.ElapsedSeconds();
  ExecutionPlan plan = std::move(draft).Freeze();

#ifdef FLEXGRAPH_VERIFY_PLANS
  {
    // The graph vertex count is unknown here; the max bound disables only the
    // gather-range check, every structural invariant still runs.
    const VerifyResult vr = VerifyPlan(plan, hdg, std::numeric_limits<uint64_t>::max());
    FLEX_CHECK_MSG(vr.ok(), "compiled plan failed verification:\n" + vr.Summary());
  }
#endif

  FLEX_COUNTER_ADD("exec.plan_compiles", 1);
  FLEX_HIST_OBSERVE("exec.plan_compile_seconds", plan.compile_seconds());
  FLEX_GAUGE_SET("exec.planned_bytes", static_cast<double>(plan.planned_bytes()));
  FLEX_GAUGE_SET("exec.isa_level", static_cast<double>(static_cast<int>(plan.isa())));
  return plan;
}

}  // namespace flexgraph
