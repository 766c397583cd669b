#include "src/dist/worker_exec.h"

#include <algorithm>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace flexgraph {

void PrepareWorkerState(const GnnModel& model, const CsrGraph& graph,
                        const Partitioning& parts, ExecStrategy strategy, Rng& rng,
                        WorkerState* worker) {
  WallTimer timer;
  if (worker->roots.empty()) {
    worker->hdg = Hdg();
    worker->hdg_build_seconds = 0.0;
    return;
  }
  worker->hdg = BuildHdgForRoots(model, graph, worker->roots, rng);
  worker->hdg_build_seconds = timer.ElapsedSeconds();
  FLEX_HIST_OBSERVE("dist.hdg_build_seconds", worker->hdg_build_seconds);
  worker->plan = BuildCommPlan(worker->hdg, parts, worker->id, &worker->out_refs_by_owner);
  // Each worker compiles its own execution plan and sizes its own arena —
  // exactly what a real shared-nothing worker would do. A fault-recovery
  // re-partition funnels back through Prepare, so migrated roots get fresh
  // plans automatically.
  worker->exec_plan = std::make_shared<const ExecutionPlan>(
      CompileExecutionPlan(model.name, worker->hdg, strategy));
  worker->workspace = std::make_shared<Workspace>();
  worker->workspace->Reserve(worker->exec_plan->planned_bytes());
  FLEX_LOG(Debug) << "HDG built: " << worker->roots.size() << " roots, "
                  << worker->hdg.num_leaf_refs() << " leaf refs ("
                  << worker->plan.remote_leaf_refs << " remote) in "
                  << worker->hdg_build_seconds << "s";
}

Tensor ExecuteWorkerLayer(const GnnLayer& layer, ExecStrategy strategy,
                          WorkerState& worker, const Variable& h_var,
                          WorkerLayerSeconds* seconds) {
  AggregationStats agg_stats;
  HdgAggregator aggregator(worker.hdg, strategy, &agg_stats, worker.exec_plan.get());

  // The worker's arena is rewound once per (worker, layer): every tensor
  // this worker borrowed for the previous layer died with that layer's
  // `nbr`/`local`/`out` variables, so the slabs can be bump-reused.
  Variable out;
  if (worker.workspace != nullptr) {
    worker.workspace->Reset();
  }
  {
    WorkspaceScope ws_scope(worker.workspace.get());
    WallTimer agg_timer;
    Variable nbr = layer.Aggregate(h_var, aggregator);
    const double agg_seconds = agg_timer.ElapsedSeconds();
    seconds->bottom = agg_stats.bottom_seconds;
    seconds->rest_agg = std::max(0.0, agg_seconds - agg_stats.bottom_seconds);

    WallTimer update_timer;
    std::vector<uint32_t> root_index(worker.roots.begin(), worker.roots.end());
    Variable local = AgGatherRows(h_var, std::move(root_index));
    out = layer.Update(local, nbr);
    seconds->update = update_timer.ElapsedSeconds();
  }

  // Copy the root rows out of the arena after the scope closes (so the copy
  // itself is heap-allocated, not arena-borrowed): out.value() stays valid
  // until this worker's next Reset, which is at least a layer away, and the
  // result must outlive that — on the socket backend it travels across a
  // process boundary.
  const Tensor& value = out.value();
  FLEX_CHECK_EQ(value.rows(), static_cast<int64_t>(worker.roots.size()));
  Tensor rows = Tensor::Uninitialized(value.rows(), value.cols());
  std::memcpy(rows.data(), value.data(),
              static_cast<std::size_t>(value.numel()) * sizeof(float));
  return rows;
}

uint32_t ParametersCrc(const GnnModel& model) {
  uint32_t crc = 0;
  for (const Variable& p : model.Parameters()) {
    const Tensor& value = p.value();
    crc = Crc32(value.data(), static_cast<std::size_t>(value.numel()) * sizeof(float),
                crc);
  }
  return crc;
}

}  // namespace flexgraph
