// FinalizePass — workspace-size estimate, ISA stamp, and the plan.* metric
// counters the bench suite snapshots (shared partials and the leaf-ref
// before/after accounting behind the fig14 leaf_ref_ratio row).
#include "src/exec/passes/pass.h"
#include "src/exec/simd.h"
#include "src/obs/metrics.h"

namespace flexgraph {

void FinalizePass(PlanDraft& draft) {
  // Per layer, forward + backward touch roughly one input-width and one
  // output-width tensor per level, plus update-stage temporaries around the
  // root rows. This is a reservation hint — the arena still grows on demand
  // during the recording (first) epoch and is exact from then on.
  const auto d = static_cast<std::size_t>(draft.planned_dim);
  std::size_t floats = 0;
  const LevelDraft* levels[] = {&draft.bottom, draft.has_instance ? &draft.instance : nullptr,
                                draft.has_schema ? &draft.schema : nullptr};
  for (const LevelDraft* level : levels) {
    if (level == nullptr) {
      continue;
    }
    floats += 2 * static_cast<std::size_t>(level->input_rows + level->num_segments) * d;
  }
  const std::size_t root_rows = static_cast<std::size_t>(
      draft.flat ? draft.bottom.num_segments : draft.schema.num_segments);
  floats += 8 * root_rows * d;
  if (draft.has_fusion) {
    // Fused bottom executions additionally hold the partials tensor
    // (forward) and the extended-source gradient tensor (backward) per
    // layer; both live in the same workspace scope as the level tensors.
    floats += 2 *
              static_cast<std::size_t>(draft.fusion.num_partials + draft.fusion.src_rows) *
              d;
  }
  // The multiplier covers the most temporary-hungry layer types: an LSTM
  // aggregator's gate tape holds ~2.5 d-wide rows per edge beyond the two
  // generic ones, attention another ~2.4 (measured by VerifyWorkspace in
  // the verify_test sweep). 3.5x keeps ~40% headroom over that worst case;
  // untouched slab pages are never faulted in, so overshoot stays virtual.
  draft.planned_bytes = floats * sizeof(float) * 7 / 2;

  draft.isa = simd::ActiveIsa();

  // Static fusion accounting. Only plans whose bottom level runs the fused
  // gather-reduce (FA/HA) are counted — sparse plans never fuse, and mixing
  // them in would dilute the bench's leaf_ref_ratio.
  if (draft.strategy != ExecStrategy::kSparse) {
    const uint64_t before = static_cast<uint64_t>(draft.bottom.input_rows);
    const uint64_t after = draft.has_fusion ? draft.fusion.leaf_refs_after : before;
    FLEX_COUNTER_ADD("plan.fused_leaf_refs_before", static_cast<int64_t>(before));
    FLEX_COUNTER_ADD("plan.fused_leaf_refs_after", static_cast<int64_t>(after));
    FLEX_COUNTER_ADD("plan.shared_partials",
                     draft.has_fusion ? draft.fusion.num_partials : 0);
  }
}

}  // namespace flexgraph
