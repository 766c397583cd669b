// Fixture: draft-plan types escaping the pass pipeline — every use below
// must fire (a caller outside src/exec/passes/ mutating a draft bypasses
// the freeze boundary that makes ExecutionPlan safe to share).
#include "src/exec/passes/pass.h"

flexgraph::ExecutionPlan HandRolledPlan() {
  flexgraph::PlanDraft draft;
  draft.model_name = "gcn";
  return std::move(draft).Freeze();
}

void PatchBottomLevel(flexgraph::LevelDraft* level) {
  level->leaf_ids.push_back(0);
}

void GrowFusion(flexgraph::FusionDraft* fusion) {
  fusion->num_partials += 1;
}
