#include "traced_trainer.h"

#include <string>

#include "src/core/neighbor_selection.h"
#include "src/tensor/workspace.h"

namespace e2e {

using flexgraph::Variable;

TracedTrainer::TracedTrainer(TrainState& state, SpanRecorder* spans)
    : state_(state),
      spans_(spans),
      params_(state.model.Parameters()),
      opt_(kLearningRate) {}

EpochOutcome TracedTrainer::RunEpoch(int epoch_id) {
  flexgraph::Engine& engine = state_.engine;
  const flexgraph::GnnModel& model = state_.model;
  ScopedSpan epoch_span(spans_, "epoch", epoch_id);

  const flexgraph::Hdg* hdg = nullptr;
  {
    ScopedSpan span(spans_, "core.ensure_hdg", epoch_id);
    flexgraph::StageTimes times;
    hdg = &engine.EnsureHdg(model, state_.rng, &times);
  }
  // Same order as Trainer::Fit: the previous epoch's graph is dead, so the
  // arena rewinds before this epoch allocates.
  engine.workspace().Reset();
  Variable logits;
  Variable loss;
  {
    flexgraph::WorkspaceScope ws_scope(&engine.workspace());
    // Engine::Forward, one layer call at a time.
    flexgraph::HdgAggregator aggregator(*hdg, engine.strategy(), &engine.stats(), engine.plan());
    Variable feats = Variable::Leaf(flexgraph::WsTensorCopy(state_.ds.features));
    for (std::size_t l = 0; l < model.layers.size(); ++l) {
      const std::string suffix = ".l" + std::to_string(l);
      Variable nbr;
      {
        ScopedSpan span(spans_, "core.aggregate" + suffix, epoch_id);
        nbr = model.layers[l]->Aggregate(feats, aggregator);
      }
      {
        ScopedSpan span(spans_, "core.update" + suffix, epoch_id);
        feats = model.layers[l]->Update(feats, nbr);
      }
    }
    logits = feats;
    {
      ScopedSpan span(spans_, "core.loss", epoch_id);
      loss = flexgraph::MaskedSoftmaxCrossEntropy(logits, state_.split.train, state_.ds.labels);
    }
    {
      ScopedSpan span(spans_, "tensor.backward", epoch_id);
      loss.Backward();
    }
    {
      ScopedSpan span(spans_, "tensor.optimize", epoch_id);
      opt_.Step(params_);
      flexgraph::SgdOptimizer::ZeroGrad(params_);
    }
  }
  EpochOutcome outcome;
  outcome.loss = loss.value().At(0, 0);
  outcome.val_accuracy =
      state_.split.val.empty()
          ? 0.0f
          : flexgraph::MaskedAccuracy(logits.value(), state_.split.val, state_.ds.labels);
  return outcome;
}

std::unique_ptr<BuiltHdg> ProbeHdgBuild(TrainState& state, SpanRecorder* spans) {
  flexgraph::Rng stream_copy = state.rng;
  std::unique_ptr<BuiltHdg> built;
  {
    ScopedSpan span(spans, "hdg.build", -1);
    built = std::make_unique<BuiltHdg>(
        flexgraph::BuildHdgAllVertices(state.model, state.ds.graph, stream_copy));
  }
  {
    ScopedSpan span(spans, "exec.plan_compile", -1);
    // Same arguments as Engine::EnsureHdg.
    built->plan =
        flexgraph::CompileExecutionPlan(state.model.name, built->hdg, state.engine.strategy());
  }
  return built;
}

namespace {

// Forward `fn` on a fresh leaf copy of `input`, then backward from an
// all-ones seed; returns the forward output's value.
template <typename Fn>
flexgraph::Tensor ProbeLevel(const char* level, const flexgraph::Tensor& input, Fn fn,
                             SpanRecorder* spans) {
  const Variable in = Variable::Leaf(flexgraph::WsTensorCopy(input), /*requires_grad=*/true);
  Variable out;
  {
    ScopedSpan span(spans, std::string("agg_fwd.") + level, -1);
    out = fn(in);
  }
  const flexgraph::Tensor seed = flexgraph::Tensor::Full(out.rows(), out.cols(), 1.0f);
  {
    ScopedSpan span(spans, std::string("agg_bwd.") + level, -1);
    out.Backward(seed);
  }
  return out.value();
}

}  // namespace

void ProbeAggregationLevels(TrainState& state, const BuiltHdg& built, SpanRecorder* spans) {
  flexgraph::Workspace& ws = state.engine.workspace();
  ws.Reset();
  flexgraph::WorkspaceScope ws_scope(&ws);
  const flexgraph::HdgAggregator agg(built.hdg, state.engine.strategy(), nullptr, &built.plan);
  const flexgraph::Tensor instances = ProbeLevel(
      "bottom", state.ds.features,
      [&](const Variable& x) { return agg.BottomLevel(x, flexgraph::ReduceKind::kMean); }, spans);
  if (built.hdg.flat()) {
    return;
  }
  // Zero scores = uniform attention; the kernels' work does not depend on
  // the score values.
  const Variable scores = Variable::Leaf(
      flexgraph::WsTensor(instances.rows(), 1), /*requires_grad=*/true);
  const flexgraph::Tensor slots = ProbeLevel(
      "instance", instances,
      [&](const Variable& x) { return agg.InstanceLevelAttention(x, scores); }, spans);
  ProbeLevel(
      "schema", slots,
      [&](const Variable& x) { return agg.SchemaLevel(x, flexgraph::ReduceKind::kMean); },
      spans);
}

}  // namespace e2e
