#include "src/dist/dist_trainer.h"

#include <algorithm>
#include <optional>

#include "src/core/neighbor_selection.h"
#include "src/dist/checkpoint.h"
#include "src/dist/supervisor.h"
#include "src/fault/recovery.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/ops_dense.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace flexgraph {

DistributedTrainer::DistributedTrainer(const CsrGraph& graph, Partitioning parts,
                                       DistTrainConfig config)
    : graph_(graph), parts_(std::move(parts)), config_(config), engine_(graph) {
  FLEX_CHECK_EQ(parts_.owner.size(), static_cast<std::size_t>(graph_.num_vertices()));
  ValidateNetworkModel(config_.network);
}

// Out of line for the forward-declared SocketCluster's destructor.
DistributedTrainer::~DistributedTrainer() = default;

DistTrainEpochResult DistributedTrainer::TrainEpoch(const GnnModel& model,
                                                    const Tensor& features,
                                                    const std::vector<uint32_t>& labels,
                                                    Rng& rng) {
  const int64_t epoch = epoch_index_++;
  DistTrainEpochResult result;
  FLEX_TRACE_SPAN("dist.train_epoch", {{"workers", static_cast<double>(parts_.num_parts)}});
  FLEX_COUNTER_ADD("dist.train_epochs", 1);
  WallTimer timer;

  // Synchronous data-parallel training with identical replicas optimizes the
  // union objective, so evaluate its canonical form — the same
  // AgSoftmaxCrossEntropy over all vertices that Engine::TrainEpoch uses.
  // One summation order, independent of the partitioning: the loss is bitwise
  // identical to single-machine training and unchanged by root migration
  // (header comment).
  StageTimes times;
  const Hdg& hdg = engine_.EnsureHdg(model, rng, &times);
  Variable logits = engine_.Forward(model, hdg, features, &times);

  const double n = static_cast<double>(graph_.num_vertices());
  Variable total_loss = AgSoftmaxCrossEntropy(logits, labels);
  result.loss = total_loss.value().At(0, 0);

  total_loss.Backward();
  std::vector<Variable> params = model.Parameters();

  // The gradient sync, where a scheduled crash fires on both backends: its
  // victim, if it holds roots, dies just before the broadcast.
  std::optional<CrashPlan> crash =
      config_.fault != nullptr ? config_.fault->NextCrash(epoch) : std::nullopt;
  if (config_.backend == DistBackend::kSocket) {
    if (cluster_ == nullptr) {
      // Fork the replicas now, pre-step: every child inherits exactly the
      // parameter state the supervisor is about to step from.
      SocketCluster::Config cluster_config;
      cluster_config.strategy = ExecStrategy::kHybrid;
      cluster_config.network = config_.network;
      cluster_config.fault = config_.fault;
      cluster_config.retry = config_.retry;
      cluster_ = std::make_unique<SocketCluster>(graph_, &parts_, cluster_config);
      cluster_->Start(model, features);
    }
    // Ship the gradients before stepping locally: the replicas' steps overlap
    // the supervisor's, and both run the identical SgdOptimizer code path.
    cluster_->BroadcastGradients(model, config_.learning_rate, epoch,
                                 crash.has_value() ? &*crash : nullptr);
  }
  SgdOptimizer opt(config_.learning_rate);
  opt.Step(params);
  SgdOptimizer::ZeroGrad(params);

  // Deaths at the sync: measured silence on sockets, priced detection in
  // process. Each is recovered the way the runtime recovers one — migrate
  // the dead worker's roots onto the survivors — and the epoch commits: the
  // union loss does not depend on the partitioning, so nothing re-runs.
  std::vector<WorkerDeath> deaths;
  if (cluster_ != nullptr) {
    deaths = cluster_->AwaitParamsAcks(model);
  } else if (crash.has_value() && crash->worker < parts_.num_parts &&
             parts_.PartSizes()[crash->worker] > 0) {
    deaths.push_back(WorkerDeath{crash->worker, config_.retry.DetectionSeconds()});
  }
  for (const WorkerDeath& death : deaths) {
    FLEX_LOG(Warning) << "worker " << death.worker << " declared dead at the gradient sync of "
                      << "epoch " << epoch << " after " << death.detection_seconds
                      << "s; continuing on survivors";
    FLEX_COUNTER_ADD("dist.worker_deaths", 1);
    const MigrationResult migration = MigrateRoots(parts_, death.worker);
    result.roots_migrated += static_cast<int64_t>(migration.migrated.size());
    result.recovery_seconds += death.detection_seconds;
    ++result.crashes_recovered;
    FLEX_COUNTER_ADD("dist.train_recoveries", 1);
    FLEX_HIST_OBSERVE("fault.recovery_seconds", death.detection_seconds);
    FLEX_HIST_OBSERVE("fault.detection_seconds", death.detection_seconds);
  }
  if (!deaths.empty() && cluster_ != nullptr) {
    cluster_->BroadcastPartition();
  }

  // Timing: the epoch's compute parallelizes across workers; the straggler
  // carries proportionally more roots than average — and an injected
  // straggler fault multiplies its victim's compute on top of that.
  const double total_seconds = timer.ElapsedSeconds();
  const std::vector<uint64_t> part_sizes = parts_.PartSizes();
  const double avg_roots = n / parts_.num_parts;
  double straggler = 1.0;
  for (uint32_t w = 0; w < parts_.num_parts; ++w) {
    double relative =
        avg_roots > 0 ? static_cast<double>(part_sizes[w]) / avg_roots : 1.0;
    if (config_.fault != nullptr && part_sizes[w] > 0) {
      relative *= config_.fault->StragglerFactor(epoch, w);
    }
    straggler = std::max(straggler, relative);
  }
  result.compute_seconds = total_seconds / parts_.num_parts * straggler;

  // Ring allreduce of the averaged gradients.
  uint64_t param_bytes = 0;
  for (const Variable& p : params) {
    param_bytes += static_cast<uint64_t>(p.value().numel()) * sizeof(float);
  }
  const uint32_t k = parts_.num_parts;
  if (k > 1) {
    result.allreduce_bytes = 2 * param_bytes * (k - 1) / k;
    result.allreduce_seconds =
        config_.network.TransferSeconds(result.allreduce_bytes, 2 * (k - 1));
    // Failed allreduce steps retransmit with timeout + backoff, like any
    // other modeled transfer.
    if (config_.fault != nullptr) {
      int failures = 0;
      for (uint32_t w = 0; w < k; ++w) {
        failures += config_.fault->TransferFailures(epoch, kAnyLayer, w);
      }
      if (failures > 0) {
        const double penalty = config_.retry.PenaltySeconds(failures);
        result.allreduce_seconds += penalty;
        FLEX_HIST_OBSERVE("fault.retry_wait_seconds", penalty);
      }
    }
  }
  FLEX_COUNTER_ADD("dist.allreduce_bytes", static_cast<int64_t>(result.allreduce_bytes));
  FLEX_HIST_OBSERVE("dist.train_compute_seconds", result.compute_seconds);

  // Rotating epoch-boundary checkpoint after the epoch commits. A scheduled
  // truncation corrupts the file afterwards (disk rot — the atomic write
  // itself cannot tear), which FindLatestValidCheckpoint detects and skips.
  if (!config_.checkpoint_dir.empty() && config_.checkpoint_every > 0 &&
      (epoch + 1) % config_.checkpoint_every == 0) {
    const std::string path = SaveRotatingCheckpoint(config_.checkpoint_dir, model, epoch,
                                                    config_.checkpoint_keep);
    if (config_.fault != nullptr && config_.fault->CheckpointTruncationAt(epoch)) {
      FaultInjector::TruncateFileTail(path);
      FLEX_LOG(Warning) << "injected corruption: truncated checkpoint " << path;
    }
  }
  return result;
}

}  // namespace flexgraph
