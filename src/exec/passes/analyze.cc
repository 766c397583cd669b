// AnalyzePass — reads the HDG, writes the PassContext. Computes the bottom
// level's leaf/degree/overlap statistics (src/hdg/stats) and resolves the
// fusion budget: how many shared partials the fuse pass may materialize.
//
// Budget heuristic: the miner's candidates are shared prefixes of segment
// leaf lists, so the useful partial count is bounded by the number of
// segments wide enough to share anything (width >= 2). One partial per two
// fusable segments, floored at 1024, caps the partials tensor at a fraction
// of the output tensor while leaving room for the duplicate-heavy graphs
// where fusion pays most.
#include <algorithm>

#include "src/exec/passes/pass.h"
#include "src/obs/metrics.h"

namespace flexgraph {

void AnalyzePass(const Hdg& hdg, PassContext& ctx) {
  ctx.bottom_stats = ComputeLeafStats(hdg.bottom_offsets(), hdg.leaf_vertex_ids());
  const HdgLeafStats& st = ctx.bottom_stats;
  ctx.fuse_budget = std::max<int64_t>(1024, static_cast<int64_t>(st.fusable_segments) / 2);

  FLEX_COUNTER_ADD("plan.analyze_leaf_refs", static_cast<int64_t>(st.leaf_refs));
  FLEX_COUNTER_ADD("plan.analyze_repeat_refs", static_cast<int64_t>(st.repeat_refs));
}

}  // namespace flexgraph
