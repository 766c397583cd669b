// Data-parallel distributed training over the distributed workers.
//
// Every worker holds a replica of the model parameters; per epoch the
// synchronized cluster optimizes the union objective — the softmax
// cross-entropy over ALL vertices, exactly the loss Engine::TrainEpoch
// computes. Because identical replicas with synchronized gradients make the
// per-worker decomposition Σ_w (|roots_w|/n)·L_w(θ) and the union loss the
// same objective, the trainer evaluates the *canonical* union form: one
// forward pass, one loss, one backward. That makes the loss trajectory
// bitwise identical to single-machine training AND independent of the
// partitioning — which is what lets fault recovery migrate roots without
// perturbing a single bit of the trajectory (the tests assert both).
//
// On the modeled backend the gradient allreduce is priced with NetworkModel;
// on the socket backend the gradients are additionally broadcast to N real
// worker processes that each apply the identical optimizer step to their own
// replica and ack with a parameter CRC the supervisor verifies.
//
// Fault tolerance: a worker death is served at the gradient sync, the same
// way on both backends — a scheduled crash kills its victim just before the
// broadcast (a real SIGKILL on sockets), the death is detected (measured
// heartbeat silence on sockets, RetryPolicy::DetectionSeconds() in process),
// the dead worker's roots migrate onto the survivors, and the epoch commits.
// Nothing is rolled back or re-run: the union loss does not depend on the
// partitioning, so the loss trajectory is bit-identical to a fault-free run.
// Optional rotating file checkpoints (checkpoint_dir/checkpoint_every)
// persist the epoch boundaries for cross-process resume via
// FindLatestValidCheckpoint.
#ifndef SRC_DIST_DIST_TRAINER_H_
#define SRC_DIST_DIST_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/dist/network_model.h"
#include "src/dist/transport.h"
#include "src/fault/fault_injector.h"
#include "src/fault/retry.h"
#include "src/partition/partition.h"

namespace flexgraph {

class SocketCluster;

struct DistTrainConfig {
  float learning_rate = 0.1f;
  // kModeled executes the canonical step in-process and models the allreduce;
  // kSocket additionally keeps one real parameter replica per forked worker
  // process in sync: gradients broadcast over Unix sockets, every replica
  // runs the identical SGD step, and each acks with a parameter CRC the
  // supervisor verifies — so replica divergence fails loudly. The loss
  // trajectory is bitwise identical across backends (dist_test asserts it).
  DistBackend backend = DistBackend::kModeled;
  NetworkModel network;
  // Deterministic fault schedule (not owned; nullptr = fault-free).
  FaultInjector* fault = nullptr;
  RetryPolicy retry;
  // Non-empty enables rotating epoch-boundary checkpoints under this
  // directory, written every `checkpoint_every` epochs (hardened format:
  // atomic rename + CRC). A kCheckpointTruncate fault corrupts the file
  // *after* the atomic write, modeling disk rot; FindLatestValidCheckpoint
  // skips such files at resume time.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_keep = 3;
};

struct DistTrainEpochResult {
  float loss = 0.0f;             // average loss across workers' shares
  double compute_seconds = 0.0;  // makespan of the per-worker train step
  double allreduce_seconds = 0.0;
  uint64_t allreduce_bytes = 0;
  // Fault handling (zero on fault-free epochs): deaths recovered at the
  // gradient sync, their detection time, and the roots they gave up.
  double recovery_seconds = 0.0;
  int64_t crashes_recovered = 0;
  int64_t roots_migrated = 0;
};

class DistributedTrainer {
 public:
  // Validates config.network; the socket backend's worker processes are
  // forked lazily inside the first TrainEpoch, after the forward pass and
  // before the first optimizer step, so every replica starts from the same
  // parameter state the supervisor steps from.
  DistributedTrainer(const CsrGraph& graph, Partitioning parts, DistTrainConfig config);
  ~DistributedTrainer();

  uint32_t num_workers() const { return parts_.num_parts; }
  const Partitioning& partitioning() const { return parts_; }

  // One synchronous data-parallel epoch: the canonical union loss and its
  // gradients, the gradient sync, one SGD step on the (shared) parameters.
  // A worker death at the sync is recovered inside this call (header
  // comment).
  DistTrainEpochResult TrainEpoch(const GnnModel& model, const Tensor& features,
                                  const std::vector<uint32_t>& labels, Rng& rng);

 private:
  const CsrGraph& graph_;
  Partitioning parts_;
  DistTrainConfig config_;
  // Socket backend only: the replica process group, forked on first use.
  std::unique_ptr<SocketCluster> cluster_;
  Engine engine_;  // owns the HDG cache across epochs
  int64_t epoch_index_ = 0;  // epochs started, for fault-schedule lookup
};

}  // namespace flexgraph

#endif  // SRC_DIST_DIST_TRAINER_H_
