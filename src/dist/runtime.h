// Shared-nothing distributed runtime (paper §5) over either backend.
//
// On the modeled backend each worker's share of every stage is *physically
// executed* in this process and wall-timed, and network transfers are
// *modeled* with NetworkModel. The per-epoch makespan combines both; every
// epoch reports two aggregation timelines from the same measured kernels:
//
//   raw:        T_w(layer) = t_serialize_out(w) + comm_raw(w)
//                            + t_bottom(w) + t_rest(w)
//   pipelined:  T_w(layer) = max(t_partial_out(w) + t_partial_local(w),
//                                comm_pp(w)) + t_merge(w) + t_rest(w)
//   layer makespan = max_w T_w,   epoch = Σ layers (+ NeighborSelection
//   makespan when HDGs are rebuilt, + modeled backward & gradient allreduce
//   when training simulation is enabled).
//
// The pipelined timeline is the paper's partial-aggregation overlap and the
// one the epoch's makespan, stage times and modeled trace spans follow:
// remote owners pre-reduce their contribution per segment (t_partial_out,
// costed at the measured per-row rate), the receiver reduces its local rows
// while partial messages are in flight (the max term), then merges. The raw
// timeline is reported beside it for Fig 15b/c. Stage times come from kernel
// rates pooled across workers (DESIGN.md §7): the paper's cluster is
// homogeneous, and per-worker rate jitter on one shared host is not.
// Computed vertex features are bit-identical to single-machine execution —
// the tests assert this.
//
// On the socket backend the same epoch runs on forked worker processes
// (src/dist/supervisor.h) and its makespan is measured wall time.
//
// Fault tolerance: with DistConfig::fault set, deterministic fault events
// (worker crashes, transfer drops/corruption, stragglers) fire inside the
// epoch, and RunEpoch serves a worker death with one recovery protocol on
// both backends — see RunEpoch and DESIGN.md §10.
#ifndef SRC_DIST_RUNTIME_H_
#define SRC_DIST_RUNTIME_H_

#include <memory>
#include <vector>

#include "src/core/engine.h"
#include "src/dist/comm_plan.h"
#include "src/dist/network_model.h"
#include "src/dist/transport.h"
#include "src/dist/worker_exec.h"
#include "src/fault/fault_injector.h"
#include "src/fault/recovery.h"
#include "src/fault/retry.h"
#include "src/partition/partition.h"

namespace flexgraph {

class SocketCluster;

struct DistConfig {
  ExecStrategy strategy = ExecStrategy::kHybrid;
  // Which backend executes the epoch: kModeled prices transfers with
  // NetworkModel on simulated in-process workers (every timeline above);
  // kSocket forks one real process per worker and moves the same messages
  // over Unix-domain sockets (src/dist/supervisor.h). Logits are bitwise
  // identical across backends — the dist_test parity sweep asserts it.
  DistBackend backend = DistBackend::kModeled;
  NetworkModel network;
  // > 0 enables training-epoch simulation: backward compute is modeled as
  // factor × (aggregation + update) per worker, plus a ring-allreduce of the
  // model parameters. 0 = forward-only epochs.
  double backward_compute_factor = 0.0;
  // Deterministic fault schedule queried during RunEpoch (not owned; may be
  // nullptr = fault-free). Faults change the timeline and trigger the
  // recovery protocol, never the computed features — see the fault fields of
  // DistEpochStats and src/fault/.
  FaultInjector* fault = nullptr;
  // Prices failed transfers and in-process crash detection (src/fault/retry.h).
  RetryPolicy retry;
};

// WorkerState lives in src/dist/worker_exec.h, shared with the socket
// backend's worker processes.

struct DistEpochStats {
  double makespan_seconds = 0.0;
  double neighbor_selection_seconds = 0.0;  // makespan of the (re)build, if any
  double aggregation_seconds = 0.0;         // makespan of the aggregation stage
  // Both timelines evaluated from the same measured kernels (header
  // comment) — lets benches compare PP on/off without cross-run measurement
  // noise. aggregation_seconds is the pipelined one.
  double aggregation_seconds_pipelined = 0.0;
  double aggregation_seconds_raw = 0.0;
  double update_seconds = 0.0;
  double backward_seconds = 0.0;
  double comm_bytes_total = 0.0;
  // Makespans of the communication-facing sub-phases of the pipelined
  // timeline: time on the wire, the serial post-receive merge/reduce, and
  // how much transfer time was hidden under sender/receiver compute (the
  // Fig 15 overlap window).
  double comm_seconds = 0.0;
  double merge_seconds = 0.0;
  double pipeline_overlap_seconds = 0.0;
  // Σ over layers of each worker's aggregation-stage time (for balance plots).
  std::vector<double> per_worker_aggregation_seconds;
  // ---- Fault handling (all zero on a fault-free epoch) ----
  // Total timeline added by the recovery protocol: lost work + detection +
  // the post-migration HDG/comm-plan rebuild. Included in makespan_seconds.
  double recovery_seconds = 0.0;
  double lost_work_seconds = 0.0;   // partial-epoch work discarded at the crash
  double detection_seconds = 0.0;   // time until the death was declared
  // Σ over workers of priced retransmission penalties (timeout + backoff per
  // failed transfer). The impact flows through comm_seconds (and, on the
  // modeled backend, the makespan).
  double retry_wait_seconds = 0.0;
  int64_t transfer_retries = 0;     // failed delivery attempts recovered by resend
  int64_t crashes_recovered = 0;
  int64_t roots_migrated = 0;       // vertices re-owned by the elastic re-partition
};

class DistributedRuntime {
 public:
  // Validates config.network (latency_seconds >= 0, bandwidth > 0 — a zero
  // bandwidth would price every transfer infinite). The socket backend's
  // worker processes are forked lazily on the first RunEpoch, so a
  // constructed-but-unused runtime costs nothing.
  DistributedRuntime(const CsrGraph& graph, Partitioning parts, DistConfig config);
  ~DistributedRuntime();

  uint32_t num_workers() const { return parts_.num_parts; }
  const Partitioning& partitioning() const { return parts_; }
  // The in-process workers (modeled backend; empty on the socket backend).
  const std::vector<WorkerState>& workers() const { return workers_; }

  // Builds every in-process worker's HDGs (and communication plans) for
  // `model`. Called implicitly by RunEpoch per the model's cache policy.
  void Prepare(const GnnModel& model, Rng& rng, double* build_makespan = nullptr);

  // One epoch. Vertex features produced are identical to single-machine
  // execution; logits_out (optional) receives the final layer output for all
  // vertices.
  //
  // Recovery, the same on both backends: the epoch runs as attempts from its
  // boundary. A scheduled crash (DistConfig::fault) kills its victim just
  // before the crash layer's fan-out in the first attempt. When an attempt
  // declares a worker dead, its work is charged as lost, the dead worker's
  // roots migrate onto the survivors (MigrateRoots), the boundary RNG is
  // restored and the epoch runs again; the survivors' HDG/comm-plan rebuild
  // lands in neighbor_selection_seconds. Only detection and the re-sync
  // differ by backend: in process, detection is priced by
  // RetryPolicy::DetectionSeconds() and the workers re-prepare; on sockets
  // it is the measured heartbeat silence, and the supervisor fences the dead
  // process and rebroadcasts the partition. Message drop/corruption events
  // price retransmissions into the comm time; stragglers scale the victim's
  // compute times. None of this changes the produced features — recovery
  // alters the timeline, never the math (tests assert bit-identical logits
  // vs. a fault-free run on both backends).
  DistEpochStats RunEpoch(const GnnModel& model, const Tensor& features, Rng& rng,
                          Tensor* logits_out = nullptr);

 private:
  // One in-process attempt at the epoch: physically executes every worker's
  // share and lays out the modeled timeline. When `crash` names a worker
  // that holds roots, layer crash->layer runs without that worker's share
  // and the attempt stops there: returns false with *death set and the
  // attempt's makespan so far in stats->makespan_seconds. `epoch` indexes
  // the fault schedule.
  bool ExecuteEpoch(const GnnModel& model, const Tensor& features, Rng& rng, int64_t epoch,
                    const CrashPlan* crash, Tensor* logits_out, DistEpochStats* stats,
                    WorkerDeath* death);

  const CsrGraph& graph_;
  Partitioning parts_;
  DistConfig config_;
  // Socket backend only: the real process group, forked on first use.
  std::unique_ptr<SocketCluster> cluster_;
  std::vector<WorkerState> workers_;
  std::vector<uint64_t> out_refs_;       // rows worker w pre-reduces for others (PP)
  std::vector<uint64_t> raw_out_rows_;   // distinct rows worker w serializes (raw)
  bool prepared_ = false;
  int64_t epoch_index_ = 0;  // epochs started, for fault-schedule lookup
};

}  // namespace flexgraph

#endif  // SRC_DIST_RUNTIME_H_
