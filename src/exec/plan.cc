#include "src/exec/plan.h"

#include "src/exec/passes/pass.h"
#include "src/util/env.h"

namespace flexgraph {

const char* LevelKernelClassName(LevelKernelClass k) {
  switch (k) {
    case LevelKernelClass::kFused:
      return "fused";
    case LevelKernelClass::kGatherSegmentReduce:
      return "gather+segment-reduce";
    case LevelKernelClass::kSegmentReduce:
      return "segment-reduce";
    case LevelKernelClass::kScatter:
      return "scatter";
    case LevelKernelClass::kDenseGroupReduce:
      return "dense-group-reduce";
  }
  return "?";
}

PlanOptions DefaultPlanOptions() {
  PlanOptions options;
  // EnvOnOff falls back to the default WITH a once-per-process warning on an
  // unrecognized value — plans compile on every HDG rebuild, and a typo that
  // silently turned an optimization on or off would be invisible otherwise.
  options.fuse = EnvOnOff("FLEXGRAPH_FUSE", true);
  return options;
}

ExecutionPlan CompileExecutionPlan(const std::string& model_name, const Hdg& hdg,
                                   ExecStrategy strategy, int64_t hint_dim) {
  return CompileExecutionPlan(model_name, hdg, strategy, hint_dim, DefaultPlanOptions());
}

ExecutionPlan CompileExecutionPlan(const std::string& model_name, const Hdg& hdg,
                                   ExecStrategy strategy, int64_t hint_dim,
                                   const PlanOptions& options) {
  return RunPlanPipeline(model_name, hdg, strategy, hint_dim, options);
}

}  // namespace flexgraph
