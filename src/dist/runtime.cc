#include "src/dist/runtime.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "src/dist/supervisor.h"
#include "src/fault/recovery.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace flexgraph {

namespace {

// Synthetic trace tracks: each simulated worker gets a compute track and a
// network track so overlapped transfers render side by side in the viewer.
uint32_t ComputeTrack(uint32_t worker) { return worker * 2; }
uint32_t NetworkTrack(uint32_t worker) { return worker * 2 + 1; }

std::string ComputeTrackName(uint32_t worker) {
  return "worker " + std::to_string(worker) + " compute";
}
std::string NetworkTrackName(uint32_t worker) {
  return "worker " + std::to_string(worker) + " network";
}

}  // namespace

DistributedRuntime::DistributedRuntime(const CsrGraph& graph, Partitioning parts,
                                       DistConfig config)
    : graph_(graph), parts_(std::move(parts)), config_(config) {
  FLEX_CHECK_EQ(parts_.owner.size(), static_cast<std::size_t>(graph_.num_vertices()));
  FLEX_CHECK_GE(parts_.num_parts, 1u);
  ValidateNetworkModel(config_.network);
  transport_ = MakeTransport(config_.backend, config_.network);
}

// Out of line for the forward-declared SocketCluster's destructor.
DistributedRuntime::~DistributedRuntime() = default;

void DistributedRuntime::Prepare(const GnnModel& model, Rng& rng, double* build_makespan) {
  FLEX_TRACE_SPAN("dist.prepare", {{"workers", static_cast<double>(parts_.num_parts)}});
  workers_.clear();
  workers_.resize(parts_.num_parts);
  for (uint32_t w = 0; w < parts_.num_parts; ++w) {
    workers_[w].id = w;
    workers_[w].roots.clear();
  }
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    workers_[parts_.owner[v]].roots.push_back(v);
  }

  double makespan = 0.0;
  for (auto& worker : workers_) {
    SetLogWorkerId(static_cast<int>(worker.id));
    PrepareWorkerState(model, graph_, parts_, config_.strategy, rng, &worker);
    makespan = std::max(makespan, worker.hdg_build_seconds);
  }
  SetLogWorkerId(kNoLogWorker);
  FLEX_LOG(Debug) << "prepared " << parts_.num_parts
                  << " workers, HDG build makespan " << makespan << "s";

  // out_refs_[p]: leaf rows worker p pre-reduces for *other* workers' HDGs —
  // the sending-side cost of pipelined partial aggregation.
  // raw_out_rows_[p]: distinct rows worker p gathers & serializes for others
  // under raw synchronization — the sending-side cost without pipelining.
  out_refs_.assign(parts_.num_parts, 0);
  raw_out_rows_.assign(parts_.num_parts, 0);
  for (const auto& worker : workers_) {
    for (uint32_t p = 0; p < parts_.num_parts; ++p) {
      if (p == worker.id) {
        continue;
      }
      if (p < worker.out_refs_by_owner.size()) {
        out_refs_[p] += worker.out_refs_by_owner[p];
      }
      if (p < worker.plan.distinct_remote_by_owner.size()) {
        raw_out_rows_[p] += worker.plan.distinct_remote_by_owner[p];
      }
    }
  }

  {
    MutexLock lock(state_mutex_);
    prepared_ = true;
  }
  if (build_makespan != nullptr) {
    *build_makespan = makespan;
  }
}

DistEpochStats DistributedRuntime::RunEpoch(const GnnModel& model, const Tensor& features,
                                            Rng& rng, Tensor* logits_out) {
  int64_t epoch;
  {
    MutexLock lock(state_mutex_);
    epoch = epoch_index_++;
  }
  FLEX_COUNTER_ADD("dist.epochs", 1);

  if (config_.backend == DistBackend::kSocket) {
    // Real processes: the supervisor drives the same epoch shape over Unix
    // sockets, including genuine SIGKILL injection and heartbeat-timeout
    // recovery. The cluster binds the first epoch's model/features (the
    // children inherit them copy-on-write at fork), so callers must keep
    // using the same objects — which every trainer and test does.
    if (cluster_ == nullptr) {
      SocketCluster::Config cluster_config;
      cluster_config.strategy = config_.strategy;
      cluster_config.network = config_.network;
      cluster_config.fault = config_.fault;
      cluster_config.retry = config_.retry;
      cluster_ = std::make_unique<SocketCluster>(graph_, &parts_, cluster_config);
      cluster_->Start(model, features);
    }
    return cluster_->RunForwardEpoch(model, rng, epoch, logits_out);
  }

  std::optional<CrashPlan> crash =
      config_.fault != nullptr ? config_.fault->NextCrash(epoch) : std::nullopt;
  if (!crash.has_value()) {
    return ExecuteEpoch(model, features, rng, logits_out, epoch, /*stop_after_layer=*/-1);
  }

  FLEX_TRACE_SPAN("dist.crash_recovery",
                  {{"epoch", static_cast<double>(epoch)},
                   {"worker", static_cast<double>(crash->worker)},
                   {"layer", static_cast<double>(crash->layer)}});
  // Crash recovery is a rollback to the epoch boundary; restoring the RNG
  // alongside keeps the re-execution on the exact random stream the
  // fault-free run would have consumed.
  const Rng rng_at_boundary = rng;

  // Attempt: the cluster executes up to and including the crash layer, then
  // worker `crash->worker` dies and everything computed this epoch is lost.
  FLEX_LOG(Info) << "injected crash: worker " << crash->worker << " dies at epoch "
                 << epoch << ", layer " << crash->layer;
  DistEpochStats lost =
      ExecuteEpoch(model, features, rng, nullptr, epoch, crash->layer);

  // Recovery: detect the dead worker, migrate its roots onto the survivors,
  // and re-execute the epoch from the boundary. The survivors' HDG/comm-plan
  // rebuild happens inside the re-execution (the invalidated cache forces a
  // Prepare) and lands in neighbor_selection_seconds, per the fault model.
  const double detection = config_.retry.DetectionSeconds();
  MigrationResult migration = MigrateRoots(parts_, crash->worker);
  InvalidateCache();
  rng = rng_at_boundary;
  FLEX_LOG(Info) << "recovery: migrated " << migration.migrated.size()
                 << " roots off worker " << crash->worker << ", re-executing epoch "
                 << epoch;
  DistEpochStats stats =
      ExecuteEpoch(model, features, rng, logits_out, epoch, /*stop_after_layer=*/-1);

  obs::Tracer::Get().EmitModeled(ComputeTrack(crash->worker),
                                 ComputeTrackName(crash->worker), "fault.crash_detect",
                                 obs::Tracer::Get().NowSeconds() - detection, detection,
                                 {{"epoch", static_cast<double>(epoch)}});

  stats.lost_work_seconds = lost.makespan_seconds;
  stats.detection_seconds = detection;
  stats.recovery_seconds =
      lost.makespan_seconds + detection + stats.neighbor_selection_seconds;
  stats.crashes_recovered = 1;
  stats.roots_migrated = static_cast<int64_t>(migration.migrated.size());
  stats.makespan_seconds += lost.makespan_seconds + detection;
  // Traffic and retries spent on the doomed attempt still happened.
  stats.comm_bytes_total += lost.comm_bytes_total;
  stats.retry_wait_seconds += lost.retry_wait_seconds;
  stats.transfer_retries += lost.transfer_retries;
  FLEX_HIST_OBSERVE("fault.recovery_seconds", stats.recovery_seconds);
  FLEX_HIST_OBSERVE("fault.lost_work_seconds", stats.lost_work_seconds);
  FLEX_HIST_OBSERVE("fault.detection_seconds", stats.detection_seconds);
  return stats;
}

DistEpochStats DistributedRuntime::ExecuteEpoch(const GnnModel& model,
                                                const Tensor& features, Rng& rng,
                                                Tensor* logits_out, int64_t epoch,
                                                int stop_after_layer) {
  DistEpochStats stats;
  stats.per_worker_aggregation_seconds.assign(parts_.num_parts, 0.0);

  obs::Tracer& tracer = obs::Tracer::Get();
  // Modeled per-worker timelines are anchored at the epoch's start on the
  // real trace clock, then advance by *modeled* seconds — so the simulated
  // cluster's tracks replay the paper's timeline (Fig 15) beside the real
  // host spans recorded while physically executing each worker's share.
  const double trace_base = tracer.NowSeconds();
  double sim_clock = 0.0;

  // Snapshot under the lock, then Prepare (which locks internally) outside it.
  bool prepared;
  {
    MutexLock lock(state_mutex_);
    prepared = prepared_;
  }
  const bool rebuilt = !prepared || model.cache_policy == HdgCachePolicy::kPerEpoch;
  if (rebuilt) {
    Prepare(model, rng, &stats.neighbor_selection_seconds);
    for (const auto& worker : workers_) {
      if (worker.hdg_build_seconds > 0.0) {
        tracer.EmitModeled(ComputeTrack(worker.id), ComputeTrackName(worker.id),
                           "nau.neighbor_selection", trace_base,
                           worker.hdg_build_seconds,
                           {{"roots", static_cast<double>(worker.roots.size())}});
      }
    }
    sim_clock += stats.neighbor_selection_seconds;
  }

  Tensor h = features;
  double compute_for_backward = 0.0;

  for (std::size_t li = 0; li < model.layers.size(); ++li) {
    const auto& layer = model.layers[li];
    const double layer_arg = static_cast<double>(li);
    // Physically execute each worker's share and record its stage times.
    struct WorkerLayerTimes {
      double bottom = 0.0;
      double rest_agg = 0.0;
      double update = 0.0;
    };
    std::vector<WorkerLayerTimes> times(parts_.num_parts);

    Variable h_var = Variable::Leaf(h);
    Tensor h_next;
    bool h_next_ready = false;

    for (auto& worker : workers_) {
      if (worker.roots.empty()) {
        continue;
      }
      SetLogWorkerId(static_cast<int>(worker.id));
      FLEX_TRACE_SPAN("dist.worker_execute",
                      {{"worker", static_cast<double>(worker.id)}, {"layer", layer_arg}});
      WorkerLayerSeconds seconds;
      const Tensor rows = ExecuteWorkerLayer(*layer, config_.strategy, worker, h_var,
                                             &seconds);
      times[worker.id].bottom = seconds.bottom;
      times[worker.id].rest_agg = seconds.rest_agg;
      times[worker.id].update = seconds.update;

      if (!h_next_ready) {
        h_next = Tensor(graph_.num_vertices(), rows.cols());
        h_next_ready = true;
      }
      for (std::size_t r = 0; r < worker.roots.size(); ++r) {
        std::memcpy(h_next.Row(worker.roots[r]), rows.Row(static_cast<int64_t>(r)),
                    static_cast<std::size_t>(rows.cols()) * sizeof(float));
      }
    }
    SetLogWorkerId(kNoLogWorker);
    FLEX_CHECK(h_next_ready);

    // Homogeneous-cluster normalization (runtime.h): pool measured rates and
    // re-derive each worker's stage times from its work units.
    if (config_.uniform_compute_rates) {
      double total_bottom = 0.0;
      double total_rest = 0.0;
      double total_update = 0.0;
      uint64_t total_refs = 0;
      uint64_t total_instances = 0;
      uint64_t total_roots = 0;
      for (const auto& worker : workers_) {
        if (worker.roots.empty()) {
          continue;
        }
        total_bottom += times[worker.id].bottom;
        total_rest += times[worker.id].rest_agg;
        total_update += times[worker.id].update;
        total_refs += worker.plan.total_leaf_refs;
        total_instances += worker.hdg.num_instances();
        total_roots += worker.roots.size();
      }
      const double bottom_rate =
          total_refs > 0 ? total_bottom / static_cast<double>(total_refs) : 0.0;
      const double rest_rate =
          total_instances > 0 ? total_rest / static_cast<double>(total_instances) : 0.0;
      const double update_rate =
          total_roots > 0 ? total_update / static_cast<double>(total_roots) : 0.0;
      for (const auto& worker : workers_) {
        if (worker.roots.empty()) {
          continue;
        }
        times[worker.id].bottom =
            bottom_rate * static_cast<double>(worker.plan.total_leaf_refs);
        times[worker.id].rest_agg =
            rest_rate * static_cast<double>(worker.hdg.num_instances());
        times[worker.id].update = update_rate * static_cast<double>(worker.roots.size());
      }
    }

    // Straggler injection: a slow machine's compute runs `factor`× longer.
    // Applied after rate pooling so the slowdown models a degraded host, not
    // a measurement artifact. Timeline only — the physical results above are
    // already in h_next.
    if (config_.fault != nullptr) {
      for (const auto& worker : workers_) {
        if (worker.roots.empty()) {
          continue;
        }
        const double factor = config_.fault->StragglerFactor(epoch, worker.id);
        if (factor > 1.0) {
          times[worker.id].bottom *= factor;
          times[worker.id].rest_agg *= factor;
          times[worker.id].update *= factor;
        }
      }
    }

    // Combine measured compute with the modeled network into the layer
    // timeline (header comment of runtime.h); lay the selected timeline out
    // on each worker's modeled trace tracks as it is computed.
    const int64_t d = h.cols();
    double layer_makespan = 0.0;
    double layer_agg_makespan = 0.0;
    double layer_agg_pp_makespan = 0.0;
    double layer_agg_raw_makespan = 0.0;
    double layer_update_makespan = 0.0;
    double layer_comm_makespan = 0.0;
    double layer_merge_makespan = 0.0;
    double layer_overlap_makespan = 0.0;
    const double t0 = trace_base + sim_clock;
    for (const auto& worker : workers_) {
      if (worker.roots.empty()) {
        continue;
      }
      const WorkerLayerTimes& t = times[worker.id];
      const CommPlan& plan = worker.plan;
      const double row_rate =
          plan.total_leaf_refs > 0 ? t.bottom / static_cast<double>(plan.total_leaf_refs) : 0.0;
      const uint32_t ct = ComputeTrack(worker.id);
      const uint32_t nt = NetworkTrack(worker.id);
      const std::string cname = ComputeTrackName(worker.id);
      const std::string nname = NetworkTrackName(worker.id);

      // Dropped/corrupted inbound transfers charge retransmission penalties
      // (timeout + exponential backoff per failed attempt) onto the wire
      // time; both timeline views price the same fault. Workers with no
      // inbound transfer can't lose one.
      double retry_penalty = 0.0;
      if (config_.fault != nullptr && (plan.raw_senders > 0 || plan.pp_senders > 0)) {
        const int failures =
            config_.fault->TransferFailures(epoch, static_cast<int>(li), worker.id);
        if (failures > 0) {
          retry_penalty = config_.retry.PenaltySeconds(failures);
          stats.transfer_retries += failures;
          stats.retry_wait_seconds += retry_penalty;
          FLEX_HIST_OBSERVE("fault.retry_wait_seconds", retry_penalty);
        }
      }

      // Pipelined timeline — adaptive (paper §5): partial aggregation when
      // the assembled (partial-sum) messages are smaller than raw dedup'd
      // rows, otherwise batched raw messages. Either way all sender/receiver
      // aggregation work overlaps the transfers; only the final merge/reduce
      // of received data is serial.
      double agg_pp = 0.0;
      double pp_bytes = 0.0;
      double pp_comm = 0.0;
      double pp_merge = 0.0;
      double pp_overlap = 0.0;
      const bool partial_mode =
          model.bottom_reduce_commutative && plan.PipelinedBytesIn(d) < plan.RawBytesIn(d);
      if (partial_mode) {
        const double partial_compute =
            row_rate * static_cast<double>(out_refs_[worker.id] + plan.local_leaf_refs);
        const double comm =
            transport_->TransferSeconds(plan.PipelinedBytesIn(d), plan.pp_senders) +
            retry_penalty;
        const double merge = row_rate * static_cast<double>(plan.partial_rows_in);
        agg_pp = std::max(partial_compute, comm) + merge + t.rest_agg;
        pp_bytes = static_cast<double>(plan.PipelinedBytesIn(d));
        pp_comm = comm;
        pp_merge = merge;
        pp_overlap = std::min(partial_compute, comm);
        if (config_.pipeline) {
          tracer.EmitModeled(ct, cname, "agg.partial_reduce", t0, partial_compute,
                             {{"layer", layer_arg}});
          tracer.EmitModeled(nt, nname, "comm.partial_in", t0, comm,
                             {{"layer", layer_arg},
                              {"bytes", pp_bytes},
                              {"senders", static_cast<double>(plan.pp_senders)}});
          const double tm = t0 + std::max(partial_compute, comm);
          tracer.EmitModeled(ct, cname, "agg.merge", tm, merge, {{"layer", layer_arg}});
          tracer.EmitModeled(ct, cname, "agg.rest_levels", tm + merge, t.rest_agg,
                             {{"layer", layer_arg}});
        }
      } else {
        const double overlap_compute =
            row_rate * static_cast<double>(raw_out_rows_[worker.id] + plan.local_leaf_refs);
        const double comm =
            transport_->TransferSeconds(plan.RawBytesIn(d), plan.raw_senders) +
            retry_penalty;
        const double remote_reduce = row_rate * static_cast<double>(plan.remote_leaf_refs);
        agg_pp = std::max(overlap_compute, comm) + remote_reduce + t.rest_agg;
        pp_bytes = static_cast<double>(plan.RawBytesIn(d));
        pp_comm = comm;
        pp_merge = remote_reduce;
        pp_overlap = std::min(overlap_compute, comm);
        if (config_.pipeline) {
          tracer.EmitModeled(ct, cname, "agg.local_reduce", t0, overlap_compute,
                             {{"layer", layer_arg}});
          tracer.EmitModeled(nt, nname, "comm.raw_in", t0, comm,
                             {{"layer", layer_arg},
                              {"bytes", pp_bytes},
                              {"senders", static_cast<double>(plan.raw_senders)}});
          const double tm = t0 + std::max(overlap_compute, comm);
          tracer.EmitModeled(ct, cname, "agg.remote_reduce", tm, remote_reduce,
                             {{"layer", layer_arg}});
          tracer.EmitModeled(ct, cname, "agg.rest_levels", tm + remote_reduce, t.rest_agg,
                             {{"layer", layer_arg}});
        }
      }

      // Raw timeline: gather+serialize the rows others requested, wait for
      // the inbound rows, then run the full bottom reduce — fully serial.
      const double serialize_out = row_rate * static_cast<double>(raw_out_rows_[worker.id]);
      const double raw_comm =
          transport_->TransferSeconds(plan.RawBytesIn(d), plan.raw_senders) +
          retry_penalty;
      const double agg_raw = serialize_out + raw_comm + t.bottom + t.rest_agg;
      if (!config_.pipeline) {
        tracer.EmitModeled(ct, cname, "comm.serialize_out", t0, serialize_out,
                           {{"layer", layer_arg}});
        tracer.EmitModeled(nt, nname, "comm.raw_in", t0 + serialize_out, raw_comm,
                           {{"layer", layer_arg},
                            {"bytes", static_cast<double>(plan.RawBytesIn(d))},
                            {"senders", static_cast<double>(plan.raw_senders)}});
        const double tb = t0 + serialize_out + raw_comm;
        tracer.EmitModeled(ct, cname, "agg.bottom", tb, t.bottom, {{"layer", layer_arg}});
        tracer.EmitModeled(ct, cname, "agg.rest_levels", tb + t.bottom, t.rest_agg,
                           {{"layer", layer_arg}});
      }

      const double agg_time = config_.pipeline ? agg_pp : agg_raw;
      const double comm_time = config_.pipeline ? pp_comm : raw_comm;
      const double merge_time = config_.pipeline ? pp_merge : t.bottom;
      const double overlap_time = config_.pipeline ? pp_overlap : 0.0;
      const double bytes_in =
          config_.pipeline ? pp_bytes : static_cast<double>(plan.RawBytesIn(d));
      tracer.EmitModeled(ct, cname, "nau.update", t0 + agg_time, t.update,
                         {{"layer", layer_arg}});

      FLEX_COUNTER_ADD("dist.comm_bytes", static_cast<int64_t>(bytes_in));
      FLEX_HIST_OBSERVE("dist.comm_seconds", comm_time);
      FLEX_HIST_OBSERVE("dist.merge_seconds", merge_time);
      if (config_.pipeline) {
        FLEX_HIST_OBSERVE("pipeline.overlap_seconds", overlap_time);
      } else {
        FLEX_HIST_OBSERVE("dist.serialize_seconds", serialize_out);
      }
      FLEX_HIST_OBSERVE("dist.worker_agg_seconds", agg_time);
      FLEX_HIST_OBSERVE("dist.worker_update_seconds", t.update);

      stats.comm_bytes_total += bytes_in;
      stats.per_worker_aggregation_seconds[worker.id] += agg_time;
      layer_agg_makespan = std::max(layer_agg_makespan, agg_time);
      layer_agg_pp_makespan = std::max(layer_agg_pp_makespan, agg_pp);
      layer_agg_raw_makespan = std::max(layer_agg_raw_makespan, agg_raw);
      layer_update_makespan = std::max(layer_update_makespan, t.update);
      layer_comm_makespan = std::max(layer_comm_makespan, comm_time);
      layer_merge_makespan = std::max(layer_merge_makespan, merge_time);
      layer_overlap_makespan = std::max(layer_overlap_makespan, overlap_time);
      layer_makespan = std::max(layer_makespan, agg_time + t.update);
    }
    stats.aggregation_seconds += layer_agg_makespan;
    stats.aggregation_seconds_pipelined += layer_agg_pp_makespan;
    stats.aggregation_seconds_raw += layer_agg_raw_makespan;
    stats.update_seconds += layer_update_makespan;
    stats.comm_seconds += layer_comm_makespan;
    stats.merge_seconds += layer_merge_makespan;
    stats.pipeline_overlap_seconds += layer_overlap_makespan;
    stats.makespan_seconds += layer_makespan;
    sim_clock += layer_makespan;  // synchronous layer barrier

    // Track the per-epoch compute that backward would re-traverse.
    double max_worker_compute = 0.0;
    for (const auto& worker : workers_) {
      if (!worker.roots.empty()) {
        const WorkerLayerTimes& t = times[worker.id];
        max_worker_compute =
            std::max(max_worker_compute, t.bottom + t.rest_agg + t.update);
      }
    }
    compute_for_backward += max_worker_compute;

    h = std::move(h_next);

    if (stop_after_layer >= 0 && static_cast<int>(li) >= stop_after_layer) {
      // Crash attempt: the victim dies in this layer, so later layers (and
      // the modeled backward) never run. Any rebuild time already spent this
      // epoch still counts toward the lost makespan below.
      break;
    }
  }

  if (config_.backward_compute_factor > 0.0 && stop_after_layer < 0) {
    // Backward retraces the forward kernels (scatter backward ≈ gather) plus
    // a ring allreduce of the parameter gradients.
    stats.backward_seconds = config_.backward_compute_factor * compute_for_backward;
    uint64_t param_bytes = 0;
    for (const Variable& p : model.Parameters()) {
      param_bytes += static_cast<uint64_t>(p.value().numel()) * sizeof(float);
    }
    const uint32_t k = parts_.num_parts;
    if (k > 1) {
      const uint64_t ring_bytes =
          2 * param_bytes * (k - 1) / k;  // classic ring allreduce volume per node
      stats.backward_seconds +=
          transport_->TransferSeconds(ring_bytes, 2 * (k - 1));
      stats.comm_bytes_total += static_cast<double>(ring_bytes) * k;
      FLEX_COUNTER_ADD("dist.comm_bytes", static_cast<int64_t>(ring_bytes) * k);
    }
    for (const auto& worker : workers_) {
      if (!worker.roots.empty()) {
        tracer.EmitModeled(ComputeTrack(worker.id), ComputeTrackName(worker.id),
                           "nau.backward+allreduce", trace_base + sim_clock,
                           stats.backward_seconds);
      }
    }
    sim_clock += stats.backward_seconds;
    stats.makespan_seconds += stats.backward_seconds;
  }

  stats.makespan_seconds += stats.neighbor_selection_seconds;
  FLEX_HIST_OBSERVE("dist.epoch_makespan_seconds", stats.makespan_seconds);
  if (logits_out != nullptr) {
    *logits_out = std::move(h);
  }
  return stats;
}

}  // namespace flexgraph
