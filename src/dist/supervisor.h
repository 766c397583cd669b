// Supervisor for the socket backend: N real worker processes under one
// coordinator (DESIGN.md §15).
//
// SocketCluster owns the process group: it fork()s one child per partition
// (each lands in WorkerMain and serves the frame protocol), tracks liveness
// through the heartbeat clocks of SocketTransport, and drives the same two
// epoch shapes the modeled runtime drives — forward epochs (layer fan-out /
// root-row fan-in) and gradient synchronization (broadcast + replica ack).
//
// Fault model, mirroring DESIGN.md §10 on real processes:
//   * A worker is declared dead ONLY when its liveness clock lapses past
//     RetryPolicy::DetectionSeconds() — EOF and malformed frames merely close
//     the channel and open the worker's reconnect window.
//   * A declared death is fenced (SIGKILL + waitpid, idempotent for a worker
//     that is already a corpse), its roots migrate onto the survivors
//     (MigrateRoots — the same elastic re-partition the modeled backend
//     uses), the new ownership is broadcast under a bumped generation, and
//     the epoch re-runs from the boundary with the boundary RNG restored.
//     Recovery alters the timeline, never the math: the re-run's logits are
//     bitwise identical to a fault-free run (fault_test asserts it).
//   * FaultInjector::NextKill schedules *genuine* SIGKILLs: the supervisor
//     shoots a live child mid-epoch and then must notice via heartbeat
//     silence like any other death. Nothing about recovery knows the death
//     was scheduled.
//
// Stale replies from an abandoned epoch attempt are discarded by sequence
// number: every request round carries seq_, replies echo it, mismatches are
// dropped on the floor.
#ifndef SRC_DIST_SUPERVISOR_H_
#define SRC_DIST_SUPERVISOR_H_

#include <sys/types.h>

#include <cstdint>
#include <vector>

#include "src/core/engine.h"
#include "src/dist/runtime.h"
#include "src/dist/transport_socket.h"

namespace flexgraph {

class SocketCluster {
 public:
  struct Config {
    ExecStrategy strategy = ExecStrategy::kHybrid;
    NetworkModel network;          // pricing for the modeled stat fields
    FaultInjector* fault = nullptr;  // not owned; may be nullptr
    RetryPolicy retry;
  };

  // `parts` is borrowed and mutated by recovery (root migration), exactly as
  // DistributedRuntime mutates its own copy — the caller sees the post-
  // migration ownership.
  SocketCluster(const CsrGraph& graph, Partitioning* parts, Config config);
  ~SocketCluster();

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  // Forks the workers (one per partition), waits for every kHello, and
  // broadcasts the initial ownership. The children inherit `model`,
  // `features` and the graph copy-on-write, so those objects must outlive
  // the cluster and must not be mutated behind its back — parameter updates
  // go through SyncGradients, ownership changes through recovery.
  void Start(const GnnModel& model, const Tensor& features);
  bool started() const { return started_; }
  uint32_t num_alive() const;

  // One forward epoch on the real cluster: per-layer kLayerRun fan-out,
  // kLayerRows fan-in, supervisor-side assembly of the next layer's features.
  // Layer 0 reads the features each worker inherited at Start. Consumes
  // `rng` through the kPrepare token ring exactly as the modeled Prepare
  // consumes it, which is what keeps the two backends' logits bitwise
  // identical. Handles scheduled kills and any organic death via the
  // recovery protocol described above.
  DistEpochStats RunForwardEpoch(const GnnModel& model, Rng& rng, int64_t epoch,
                                 Tensor* logits_out);

  struct GradSyncResult {
    int64_t workers_killed = 0;
    int64_t roots_migrated = 0;
    double detection_seconds = 0.0;
  };

  // Gradient synchronization, split so the supervisor's own optimizer step
  // (the canonical one, in dist_trainer.cc) overlaps the replicas' steps:
  // BroadcastGradients ships the freshly computed gradients (firing any
  // scheduled kill first), the caller steps locally, then AwaitParamsAcks
  // collects every live replica's parameter CRC and FLEX_CHECKs it against
  // the supervisor's — replica divergence fails loudly, never silently.
  void BroadcastGradients(const GnnModel& model, float lr, int64_t epoch);
  GradSyncResult AwaitParamsAcks(const GnnModel& model, int64_t epoch);

  // Clean stop: kShutdown to every live worker, bounded wait, SIGKILL for
  // anything that lingers. Idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Proc {
    pid_t pid = -1;
    bool alive = false;
  };

  void RebuildRoots();
  void BroadcastPartition();
  // SIGKILL + waitpid: idempotent fencing, safe on an already-dead child.
  void ReapWorker(uint32_t worker);
  // Migrate + rebroadcast + force re-prepare; returns roots moved.
  int64_t RecoverFrom(uint32_t dead);
  // First worker in `pending` whose liveness clock has lapsed, or kNoWorker.
  uint32_t FindDeadWorker(const std::vector<char>& pending) const;

  // The epoch attempt body. Returns false with *dead set when a worker died
  // mid-attempt (the caller runs recovery and retries).
  bool TryForwardEpoch(const GnnModel& model, Rng& rng, int64_t epoch,
                       const CrashPlan* kill, Tensor* logits_out, DistEpochStats* stats,
                       uint32_t* dead);
  // kPrepare token ring in worker-id order (root-less and dead workers are
  // skipped and consume no RNG, matching the modeled Prepare).
  bool PrepareAll(Rng& rng, double* build_makespan, uint32_t* dead);

  static constexpr uint32_t kNoWorker = UINT32_MAX;

  const CsrGraph& graph_;
  Partitioning* parts_;
  Config config_;
  SocketTransport transport_;
  std::vector<Proc> procs_;
  std::vector<std::vector<VertexId>> roots_by_worker_;
  uint64_t generation_ = 0;
  uint64_t seq_ = 0;
  bool started_ = false;
  bool need_prepare_ = true;
};

}  // namespace flexgraph

#endif  // SRC_DIST_SUPERVISOR_H_
