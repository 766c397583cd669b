#include "src/core/engine.h"

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace flexgraph {

const Hdg& Engine::EnsureHdg(const GnnModel& model, Rng& rng, StageTimes* times) {
  // Held across the rebuild: a concurrent EnsureHdg/InvalidateHdgCache must
  // not observe (or destroy) a half-swapped cache trio.
  MutexLock lock(cache_mutex_);
  const bool rebuild = !cached_hdg_.has_value() ||
                       model.cache_policy == HdgCachePolicy::kPerEpoch ||
                       cached_model_ != model.name;
  // Hit ratio of the HDG+plan cache trio: a per-epoch cache policy (PinSage)
  // misses every epoch by design; anything else missing after epoch 0 means
  // the cache is being thrashed (model switches on one engine).
  if (rebuild) {
    FLEX_COUNTER_ADD("exec.plan_cache_misses", 1);
  } else {
    FLEX_COUNTER_ADD("exec.plan_cache_hits", 1);
  }
  if (rebuild) {
    {
      FLEX_TRACE_SPAN("nau.neighbor_selection");
      FLEX_SCOPED_SECONDS("nau.neighbor_selection_seconds",
                          times != nullptr ? &times->neighbor_selection : nullptr);
      cached_hdg_ = BuildHdgAllVertices(model, graph_, rng);
    }
    // The plan is compiled once per (model, HDG, strategy) and lives/dies
    // with the cached HDG; the arena reservation comes from its estimate.
    FLEX_TRACE_SPAN("exec.plan_compile");
    cached_plan_ = std::make_unique<ExecutionPlan>(
        CompileExecutionPlan(model.name, *cached_hdg_, strategy_));
    cached_model_ = model.name;
    workspace_.Reserve(cached_plan_->planned_bytes());
  }
  return *cached_hdg_;
}

Variable Engine::Forward(const GnnModel& model, const Hdg& hdg, const Tensor& features,
                         StageTimes* times) {
  FLEX_CHECK(!model.layers.empty());
  FLEX_CHECK_EQ(features.rows(), static_cast<int64_t>(graph_.num_vertices()));
  // Aggregation runs only through the plan compiled beside the cached HDG,
  // so `hdg` must be the one EnsureHdg returned for this model. Snapshot the
  // plan pointer under the lock; the plan stays alive for as long as `hdg`
  // does (they live and die together in the cache).
  const ExecutionPlan* plan = nullptr;
  {
    MutexLock lock(cache_mutex_);
    FLEX_CHECK_MSG(cached_hdg_.has_value() && &hdg == &*cached_hdg_ &&
                       cached_model_ == model.name,
                   "Engine::Forward runs only the HDG EnsureHdg cached for this model");
    plan = cached_plan_.get();
  }
  HdgAggregator aggregator(hdg, strategy_, &stats_, plan);
  Variable feats = Variable::Leaf(WsTensorCopy(features));
  for (std::size_t l = 0; l < model.layers.size(); ++l) {
    const auto& layer = model.layers[l];
    Variable nbr;
    {
      FLEX_TRACE_SPAN("nau.aggregation", {{"layer", static_cast<double>(l)}});
      FLEX_SCOPED_SECONDS("nau.aggregation_seconds",
                          times != nullptr ? &times->aggregation : nullptr);
      FLEX_SCOPED_CPU_SECONDS("nau.aggregation_cpu_seconds");
      nbr = layer->Aggregate(feats, aggregator);
    }
    {
      FLEX_TRACE_SPAN("nau.update", {{"layer", static_cast<double>(l)}});
      FLEX_SCOPED_SECONDS("nau.update_seconds",
                          times != nullptr ? &times->update : nullptr);
      FLEX_SCOPED_CPU_SECONDS("nau.update_cpu_seconds");
      feats = layer->Update(feats, nbr);
    }
  }
  return feats;
}

EpochResult Engine::TrainEpoch(const GnnModel& model, const Tensor& features,
                               const std::vector<uint32_t>& labels, const SgdOptimizer& opt,
                               Rng& rng) {
  EpochResult result;
  FLEX_COUNTER_ADD("nau.epochs", 1);
  const Hdg& hdg = EnsureHdg(model, rng, &result.times);
  // Reset happens here — after the previous epoch's autograd graph has died,
  // before any allocation of this epoch — so steady-state epochs bump-reuse
  // the same slabs with zero heap traffic.
  workspace_.Reset();
  {
    WorkspaceScope ws_scope(&workspace_);
    Variable logits = Forward(model, hdg, features, &result.times);
    Variable loss = AgSoftmaxCrossEntropy(logits, labels);
    result.loss = loss.value().At(0, 0);

    std::vector<Variable> params = model.Parameters();
    {
      FLEX_TRACE_SPAN("nau.backward");
      FLEX_SCOPED_SECONDS("nau.backward_seconds", &result.times.backward);
      FLEX_SCOPED_CPU_SECONDS("nau.backward_cpu_seconds");
      loss.Backward();
    }
    {
      FLEX_TRACE_SPAN("nau.optimize");
      FLEX_SCOPED_SECONDS("nau.optimize_seconds", &result.times.optimize);
      FLEX_SCOPED_CPU_SECONDS("nau.optimize_cpu_seconds");
      opt.Step(params);
      SgdOptimizer::ZeroGrad(params);
    }
  }
  return result;
}

Tensor Engine::Infer(const GnnModel& model, const Tensor& features, Rng& rng, StageTimes* times) {
  const Hdg& hdg = EnsureHdg(model, rng, times);
  workspace_.Reset();
  Variable logits;
  {
    WorkspaceScope ws_scope(&workspace_);
    logits = Forward(model, hdg, features, times);
  }
  // Copied after the scope closes: the arena stays valid until the next
  // Reset, and the caller's owning copy shouldn't count as kernel heap
  // traffic.
  return logits.value();
}

}  // namespace flexgraph
