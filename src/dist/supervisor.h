// Supervisor for the socket backend: N real worker processes under one
// coordinator (DESIGN.md §15).
//
// SocketCluster owns the process group: it fork()s one child per partition
// (each lands in WorkerMain and serves the frame protocol), tracks liveness
// through the heartbeat clocks of SocketTransport, and runs the socket side
// of the two epoch shapes — forward epoch attempts (layer fan-out / root-row
// fan-in) and gradient synchronization (broadcast + replica ack).
//
// Its part in the recovery protocol (DESIGN.md §10), which the runtime and
// the trainer drive the same way on both backends:
//   * A scheduled crash (FaultKind::kWorkerCrash) is a genuine SIGKILL of the
//     victim's process, just before the crash layer's fan-out or the
//     gradient broadcast. Nothing downstream knows it was scheduled.
//   * A worker is declared dead ONLY when its liveness clock lapses past
//     RetryPolicy::DetectionSeconds() — EOF and malformed frames merely close
//     the channel and open the worker's reconnect window. The declaration
//     fences it at once (SIGKILL + waitpid, idempotent for a corpse) and
//     reports the measured silence as the detection time.
//   * The caller migrates the dead worker's roots (MigrateRoots) and calls
//     BroadcastPartition, which ships the new ownership under a bumped
//     generation; the workers re-prepare on the next epoch attempt.
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
    NetworkModel network;          // prices the comm stat fields
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
  // go through BroadcastGradients, ownership changes through recovery.
  void Start(const GnnModel& model, const Tensor& features);

  // One forward epoch attempt on the real cluster: per-layer kLayerRun
  // fan-out, kLayerRows fan-in, supervisor-side assembly of the next layer's
  // features. Layer 0 reads the features each worker inherited at Start.
  // Consumes `rng` through the kPrepare token ring exactly as the modeled
  // Prepare consumes it, which is what keeps the two backends' logits
  // bitwise identical. `crash` (may be null) SIGKILLs its victim just before
  // its layer's fan-out when the victim holds roots. Returns false with
  // *death set when a worker is declared dead; stats->makespan_seconds then
  // holds the attempt's wall time less the detection wait.
  bool TryForwardEpoch(const GnnModel& model, Rng& rng, int64_t epoch, const CrashPlan* crash,
                       Tensor* logits_out, DistEpochStats* stats, WorkerDeath* death);

  // Ships the current ownership to every live worker under a new generation
  // and makes the next attempt re-prepare. Start calls it; recovery calls it
  // after every MigrateRoots.
  void BroadcastPartition();

  // Gradient synchronization, split so the supervisor's own optimizer step
  // (the canonical one, in dist_trainer.cc) overlaps the replicas' steps:
  // BroadcastGradients ships the freshly computed gradients (SIGKILLing the
  // victim of `crash` first, when it holds roots), the caller steps locally,
  // then AwaitParamsAcks collects every live replica's parameter CRC and
  // FLEX_CHECKs it against the supervisor's — replica divergence fails
  // loudly, never silently. It returns the replicas declared dead meanwhile.
  void BroadcastGradients(const GnnModel& model, float lr, int64_t epoch,
                          const CrashPlan* crash);
  std::vector<WorkerDeath> AwaitParamsAcks(const GnnModel& model);

  // Clean stop: kShutdown to every live worker, bounded wait, SIGKILL for
  // anything that lingers. Idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Proc {
    pid_t pid = -1;
    bool alive = false;
  };

  void RebuildRoots();
  // SIGKILLs `crash`'s victim when it is alive and holds roots.
  void Kill(const CrashPlan& crash);
  // SIGKILL + waitpid: idempotent fencing, safe on an already-dead child.
  void ReapWorker(uint32_t worker);
  // First worker in `pending` whose liveness clock has lapsed, or kNoWorker.
  uint32_t FindDeadWorker(const std::vector<char>& pending) const;
  // Fences `worker` and reports how long it was silent.
  WorkerDeath DeclareDead(uint32_t worker);
  // kPrepare token ring in worker-id order (root-less and dead workers are
  // skipped and consume no RNG, matching the modeled Prepare).
  bool PrepareAll(Rng& rng, double* build_makespan, WorkerDeath* death);

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
