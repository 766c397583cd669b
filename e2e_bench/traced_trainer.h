// The traced run's epoch driver and layer probes.
//
// TracedTrainer replays Trainer::Fit's epoch body call by call so that every
// call into a layer's public entry point sits inside its own span:
//
//   core.ensure_hdg      Engine::EnsureHdg (NeighborSelection + plan compile)
//   core.aggregate.l<k>  GnnLayer::Aggregate of layer k
//   core.update.l<k>     GnnLayer::Update of layer k
//   core.loss            MaskedSoftmaxCrossEntropy
//   tensor.backward      Variable::Backward
//   tensor.optimize      SgdOptimizer::Step + ZeroGrad
//
// all children of one "epoch" span. The parity test holds its loss
// trajectory bitwise to Fit's, so the traced run measures the same program
// as the untraced one.
#ifndef E2E_BENCH_TRACED_TRAINER_H_
#define E2E_BENCH_TRACED_TRAINER_H_

#include <memory>
#include <vector>

#include "span_recorder.h"
#include "src/exec/plan.h"
#include "workloads.h"

namespace e2e {

struct EpochOutcome {
  float loss = 0.0f;
  float val_accuracy = 0.0f;
};

class TracedTrainer {
 public:
  // `spans` may be null (no recording; the parity test runs both ways).
  TracedTrainer(TrainState& state, SpanRecorder* spans);

  EpochOutcome RunEpoch(int epoch_id);

 private:
  TrainState& state_;
  SpanRecorder* spans_;
  std::vector<flexgraph::Variable> params_;
  flexgraph::SgdOptimizer opt_;
};

// An HDG and the plan compiled from it, built outside the engine's cache.
struct BuiltHdg {
  explicit BuiltHdg(flexgraph::Hdg built) : hdg(std::move(built)) {}
  flexgraph::Hdg hdg;
  flexgraph::ExecutionPlan plan;
};

// Calls BuildHdgAllVertices and CompileExecutionPlan directly (spans
// "hdg.build" and "exec.plan_compile") on a copy of the training stream, so
// the result is the HDG the next EnsureHdg would build and the training
// stream is not advanced.
std::unique_ptr<BuiltHdg> ProbeHdgBuild(TrainState& state, SpanRecorder* spans);

// Runs forward and backward of each HdgAggregator level the HDG has, in
// isolation, on `built` and its plan: spans "agg_fwd.<level>" and
// "agg_bwd.<level>" for level in {bottom, instance, schema}. Each level's
// input is a fresh leaf, so backward stops at the level boundary. The bottom
// level reduces by mean, as in every benchmarked model. Uses the engine's
// workspace; call between epochs only.
void ProbeAggregationLevels(TrainState& state, const BuiltHdg& built, SpanRecorder* spans);

}  // namespace e2e

#endif  // E2E_BENCH_TRACED_TRAINER_H_
