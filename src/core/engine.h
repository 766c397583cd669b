// Single-machine GNN execution engine: drives the NAU stages over a model,
// owns the HDG cache (per the model's cache policy), and times each stage for
// the Table-4 breakdown. The distributed runtime in src/dist composes one of
// these per worker.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/nau.h"
#include "src/core/neighbor_selection.h"
#include "src/exec/plan.h"
#include "src/tensor/nn.h"
#include "src/tensor/workspace.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace flexgraph {

struct StageTimes {
  double neighbor_selection = 0.0;
  double aggregation = 0.0;
  double update = 0.0;
  double backward = 0.0;
  double optimize = 0.0;

  double ForwardTotal() const { return neighbor_selection + aggregation + update; }
  double Total() const { return ForwardTotal() + backward + optimize; }

  StageTimes& operator+=(const StageTimes& other) {
    neighbor_selection += other.neighbor_selection;
    aggregation += other.aggregation;
    update += other.update;
    backward += other.backward;
    optimize += other.optimize;
    return *this;
  }
};

struct EpochResult {
  float loss = 0.0f;
  StageTimes times;
};

class Engine {
 public:
  Engine(const CsrGraph& graph, ExecStrategy strategy = ExecStrategy::kHybrid)
      : graph_(graph), strategy_(strategy) {}

  const CsrGraph& graph() const { return graph_; }
  ExecStrategy strategy() const { return strategy_; }
  AggregationStats& stats() { return stats_; }

  // Returns the HDGs to use for this epoch, rebuilding per the cache policy.
  // Respects §3.2's discussion: PinSage rebuilds per epoch, GCN/MAGNN reuse
  // one HDG for the whole run. Rebuild time is added to times->neighbor_selection.
  // Every (re)build also recompiles the ExecutionPlan for (model, HDG,
  // strategy) and re-reserves the workspace arena from its size estimate;
  // switching models on a shared engine invalidates both.
  // The returned reference stays valid until the next EnsureHdg or
  // InvalidateHdgCache — callers must not race either against an epoch that
  // is still executing the returned HDG.
  const Hdg& EnsureHdg(const GnnModel& model, Rng& rng, StageTimes* times)
      FLEX_EXCLUDES(cache_mutex_);

  // The plan compiled beside the cached HDG (null before the first EnsureHdg).
  const ExecutionPlan* plan() const FLEX_EXCLUDES(cache_mutex_) {
    MutexLock lock(cache_mutex_);
    return cached_plan_.get();
  }

  // The arena steady-state epochs allocate from. Callers driving Forward
  // manually (e.g. Trainer::Fit) reset it at the start of each epoch and open
  // a WorkspaceScope around the forward/backward; TrainEpoch/Infer do this
  // internally.
  Workspace& workspace() { return workspace_; }

  // Forward pass through all layers: features for every graph vertex in,
  // final-layer features (logits) out. `hdg` must be the one EnsureHdg
  // returned for `model` (FLEX_CHECKed): aggregation runs through the plan
  // compiled beside it.
  Variable Forward(const GnnModel& model, const Hdg& hdg, const Tensor& features,
                   StageTimes* times) FLEX_EXCLUDES(cache_mutex_);

  // Full supervised training epoch: forward, mean softmax cross-entropy over
  // all vertices, backward, SGD step.
  EpochResult TrainEpoch(const GnnModel& model, const Tensor& features,
                         const std::vector<uint32_t>& labels, const SgdOptimizer& opt, Rng& rng);

  // Inference-only epoch (used by the stage-breakdown bench).
  Tensor Infer(const GnnModel& model, const Tensor& features, Rng& rng, StageTimes* times);

  // Drops the cached HDG and the plan compiled from it (e.g. when switching
  // models on a shared engine — also done automatically when EnsureHdg sees a
  // different model name).
  void InvalidateHdgCache() FLEX_EXCLUDES(cache_mutex_) {
    MutexLock lock(cache_mutex_);
    cached_hdg_.reset();
    cached_plan_.reset();
    cached_model_.clear();
  }

 private:
  const CsrGraph& graph_;
  ExecStrategy strategy_;
  // Guards the cache trio as a unit — the plan is only meaningful beside the
  // exact HDG it was compiled from, so they are swapped together. The
  // workspace and stats are epoch-local (see FLEXGRAPH_NOT_THREAD_SAFE on
  // Workspace) and stay unguarded.
  mutable Mutex cache_mutex_;
  std::optional<Hdg> cached_hdg_ FLEX_GUARDED_BY(cache_mutex_);
  std::unique_ptr<ExecutionPlan> cached_plan_ FLEX_GUARDED_BY(cache_mutex_);
  std::string cached_model_ FLEX_GUARDED_BY(cache_mutex_);
  Workspace workspace_;
  AggregationStats stats_;
};

}  // namespace flexgraph

#endif  // SRC_CORE_ENGINE_H_
