// Tests for the fault-injection subsystem and the recovery protocol: retry
// arithmetic, elastic re-partitioning, injector determinism, and — the core
// invariant — bit-identical results between fault-free and injected-fault
// runs of the distributed runtime and trainer.
#include "src/fault/fault_injector.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/datasets.h"
#include "src/dist/checkpoint.h"
#include "src/dist/dist_trainer.h"
#include "src/dist/runtime.h"
#include "src/fault/recovery.h"
#include "src/fault/retry.h"
#include "src/models/gcn.h"
#include "src/obs/metrics.h"
#include "src/tensor/ops_dense.h"

namespace flexgraph {
namespace {

// ---------------------------------------------------------------- RetryPolicy

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy p;
  p.base_backoff_seconds = 0.01;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 0.05;
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(0), 0.01);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(1), 0.02);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(2), 0.04);
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(3), 0.05);  // capped
  EXPECT_DOUBLE_EQ(p.BackoffSeconds(9), 0.05);
}

TEST(RetryPolicyTest, PenaltySumsTimeoutPlusBackoffPerFailure) {
  RetryPolicy p;
  p.timeout_seconds = 0.1;
  p.base_backoff_seconds = 0.01;
  p.backoff_multiplier = 2.0;
  p.max_backoff_seconds = 1.0;
  EXPECT_DOUBLE_EQ(p.PenaltySeconds(0), 0.0);
  EXPECT_DOUBLE_EQ(p.PenaltySeconds(1), 0.1 + 0.01);
  EXPECT_DOUBLE_EQ(p.PenaltySeconds(3), 3 * 0.1 + 0.01 + 0.02 + 0.04);
}

TEST(RetryPolicyTest, DetectionIsTimeoutPlusFirstBackoff) {
  RetryPolicy p;
  p.timeout_seconds = 0.2;
  p.base_backoff_seconds = 0.03;
  EXPECT_DOUBLE_EQ(p.DetectionSeconds(), 0.23);
}

TEST(RetryPolicyTest, ExhaustedAttemptsThrow) {
  RetryPolicy p;
  p.max_attempts = 3;
  EXPECT_NO_THROW(p.PenaltySeconds(2));  // 2 failures + 1 success = 3 attempts
  EXPECT_THROW(p.PenaltySeconds(3), CheckError);
}

// --------------------------------------------------------------- MigrateRoots

TEST(MigrateRootsTest, EveryVertexOwnedExactlyOnceAfterMigration) {
  Partitioning parts;
  parts.num_parts = 4;
  parts.owner = {0, 1, 2, 3, 0, 1, 2, 3, 1, 1, 1, 1};
  MigrationResult result = MigrateRoots(parts, 1);

  EXPECT_EQ(result.dead_worker, 1u);
  EXPECT_EQ(result.migrated.size(), 6u);  // worker 1 owned 6 vertices
  EXPECT_EQ(result.migrated.size(), result.new_owner.size());
  for (uint32_t owner : parts.owner) {
    EXPECT_LT(owner, parts.num_parts);
    EXPECT_NE(owner, 1u);  // dead part owns nothing
  }
  // Survivors stay balanced: 12 vertices over 3 survivors = 4 each.
  std::vector<int> load(parts.num_parts, 0);
  for (uint32_t owner : parts.owner) {
    ++load[owner];
  }
  EXPECT_EQ(load[0], 4);
  EXPECT_EQ(load[1], 0);
  EXPECT_EQ(load[2], 4);
  EXPECT_EQ(load[3], 4);
}

TEST(MigrateRootsTest, DeterministicAcrossRuns) {
  auto run = [] {
    Partitioning parts;
    parts.num_parts = 3;
    parts.owner = {2, 2, 2, 2, 0, 1};
    MigrateRoots(parts, 2);
    return parts.owner;
  };
  EXPECT_EQ(run(), run());
}

TEST(MigrateRootsTest, SingleWorkerClusterThrows) {
  Partitioning parts;
  parts.num_parts = 1;
  parts.owner = {0, 0, 0};
  EXPECT_THROW(MigrateRoots(parts, 0), CheckError);
}

// -------------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, CrashIsOneShot) {
  FaultInjector injector;
  injector.ScheduleCrash(/*epoch=*/2, /*worker=*/1, /*layer=*/1);
  EXPECT_FALSE(injector.NextCrash(0).has_value());
  EXPECT_FALSE(injector.NextCrash(1).has_value());
  auto crash = injector.NextCrash(2);
  ASSERT_TRUE(crash.has_value());
  EXPECT_EQ(crash->worker, 1u);
  EXPECT_EQ(crash->layer, 1);
  // Consumed: the re-executed epoch does not crash again.
  EXPECT_FALSE(injector.NextCrash(2).has_value());
  EXPECT_EQ(injector.fired_count(FaultKind::kWorkerCrash), 1);
}

// flexgraph_train replays one schedule in two phases (the runtime's forward
// epochs, then training): the re-armed crash fires again, but the process
// counts each scheduled event once.
TEST(FaultInjectorTest, RearmFiresOneShotEventsAgainButCountsThemOnce) {
  obs::MetricRegistry::Get().Reset();
  FaultInjector injector;
  injector.ScheduleCrash(/*epoch=*/2, /*worker=*/1).ScheduleStraggler(/*epoch=*/1, 0, 4.0);
  for (int phase = 0; phase < 2; ++phase) {
    if (phase == 1) {
      injector.Rearm();
    }
    EXPECT_DOUBLE_EQ(injector.StragglerFactor(1, 0), 4.0) << "phase " << phase;
    EXPECT_TRUE(injector.NextCrash(2).has_value()) << "phase " << phase;
    EXPECT_FALSE(injector.NextCrash(2).has_value()) << "phase " << phase;
  }
  EXPECT_EQ(injector.fired_count(FaultKind::kWorkerCrash), 1);
  EXPECT_EQ(injector.fired_count(FaultKind::kStraggler), 1);
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  EXPECT_EQ(snap.counters.at("fault.worker_crashes"), 1);
  EXPECT_EQ(snap.counters.at("fault.stragglers"), 1);
}

TEST(FaultInjectorTest, TransferFailuresSumAndConsume) {
  FaultInjector injector;
  injector.ScheduleMessageDrop(/*epoch=*/0, /*layer=*/1, /*dst_worker=*/2, /*failures=*/2);
  injector.ScheduleMessageCorruption(/*epoch=*/0, /*layer=*/1, /*dst_worker=*/2);
  EXPECT_EQ(injector.TransferFailures(0, 0, 2), 0);
  EXPECT_EQ(injector.TransferFailures(0, 1, 3), 0);
  EXPECT_EQ(injector.TransferFailures(0, 1, 2), 3);  // 2 drops + 1 corruption
  EXPECT_EQ(injector.TransferFailures(0, 1, 2), 0);  // consumed
  EXPECT_EQ(injector.fired_count(FaultKind::kMessageDrop), 1);
  EXPECT_EQ(injector.fired_count(FaultKind::kMessageCorrupt), 1);
}

TEST(FaultInjectorTest, WildcardsMatchAnyLayerAndWorker) {
  FaultInjector injector;
  injector.ScheduleMessageDrop(/*epoch=*/1, kAnyLayer, kAnyWorker);
  EXPECT_EQ(injector.TransferFailures(1, 7, 3), 1);
  EXPECT_EQ(injector.TransferFailures(1, 7, 3), 0);
}

TEST(FaultInjectorTest, StragglerIsPersistentWithinItsEpoch) {
  FaultInjector injector;
  injector.ScheduleStraggler(/*epoch=*/1, /*worker=*/0, /*factor=*/3.0);
  EXPECT_DOUBLE_EQ(injector.StragglerFactor(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(injector.StragglerFactor(1, 1), 1.0);
  // Not consumed: every layer (and a post-recovery redo) sees the slowdown.
  EXPECT_DOUBLE_EQ(injector.StragglerFactor(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(injector.StragglerFactor(1, 0), 3.0);
  EXPECT_EQ(injector.fired_count(FaultKind::kStraggler), 1);
}

TEST(FaultInjectorTest, RandomScheduleIsSeedDeterministic) {
  FaultInjector a(42);
  FaultInjector b(42);
  a.ScheduleRandomMessageFaults(10, /*num_epochs=*/5, /*num_layers=*/2, /*num_workers=*/4);
  b.ScheduleRandomMessageFaults(10, 5, 2, 4);
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  for (std::size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].epoch, b.schedule()[i].epoch);
    EXPECT_EQ(a.schedule()[i].layer, b.schedule()[i].layer);
    EXPECT_EQ(a.schedule()[i].worker, b.schedule()[i].worker);
    EXPECT_EQ(static_cast<int>(a.schedule()[i].kind),
              static_cast<int>(b.schedule()[i].kind));
  }
}

TEST(FaultInjectorTest, TruncateFileTailShrinksFile) {
  const std::string path = ::testing::TempDir() + "/flexgraph_truncate_test.bin";
  {
    std::ofstream ofs(path, std::ios::binary);
    std::vector<char> bytes(1000, 'x');
    ofs.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const uint64_t removed = FaultInjector::TruncateFileTail(path, 0.5);
  EXPECT_EQ(removed, 500u);
  EXPECT_EQ(std::filesystem::file_size(path), 500u);
  std::remove(path.c_str());
}

// ------------------------------------------------- runtime crash recovery

struct FaultFixture {
  Dataset ds = MakeRedditLike(0.05, 3);
  GnnModel model;

  FaultFixture() {
    Rng model_rng(11);
    GcnConfig config;
    config.in_dim = ds.feature_dim();
    config.num_classes = ds.num_classes;
    model = MakeGcnModel(config, model_rng);
  }

  // Runs `epochs` epochs and returns the final logits plus accumulated stats.
  Tensor RunEpochs(DistributedRuntime& runtime, int epochs, uint64_t seed,
                   std::vector<DistEpochStats>* stats_out = nullptr) {
    Rng rng(seed);
    Tensor logits;
    for (int e = 0; e < epochs; ++e) {
      DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng, &logits);
      if (stats_out != nullptr) {
        stats_out->push_back(stats);
      }
    }
    return logits;
  }
};

TEST(RuntimeRecoveryTest, CrashRecoveryProducesBitIdenticalLogits) {
  FaultFixture fx;
  const uint32_t kWorkers = 4;

  DistributedRuntime clean(fx.ds.graph,
                           HashPartition(fx.ds.graph.num_vertices(), kWorkers),
                           DistConfig{});
  Tensor clean_logits = fx.RunEpochs(clean, 3, /*seed=*/5);

  FaultInjector injector;
  injector.ScheduleCrash(/*epoch=*/1, /*worker=*/2, /*layer=*/1);
  DistConfig config;
  config.fault = &injector;
  DistributedRuntime faulty(fx.ds.graph,
                            HashPartition(fx.ds.graph.num_vertices(), kWorkers), config);
  std::vector<DistEpochStats> stats;
  Tensor faulty_logits = fx.RunEpochs(faulty, 3, /*seed=*/5, &stats);

  // The invariant: recovery changes the timeline, never the math.
  EXPECT_TRUE(AllClose(clean_logits, faulty_logits, 0.0f));

  // Recovery accounting landed on the crash epoch.
  EXPECT_EQ(stats[1].crashes_recovered, 1);
  EXPECT_GT(stats[1].recovery_seconds, 0.0);
  EXPECT_GT(stats[1].lost_work_seconds, 0.0);
  EXPECT_GT(stats[1].detection_seconds, 0.0);
  EXPECT_GT(stats[1].roots_migrated, 0);
  EXPECT_GE(stats[1].makespan_seconds, stats[1].recovery_seconds);
  // Other epochs are unaffected.
  EXPECT_EQ(stats[0].crashes_recovered, 0);
  EXPECT_EQ(stats[2].crashes_recovered, 0);
  // The dead worker stays dead: later epochs run on the migrated partitioning.
  for (uint32_t owner : faulty.partitioning().owner) {
    EXPECT_NE(owner, 2u);
  }
}

TEST(RuntimeRecoveryTest, MessageFaultsPriceRetriesWithoutChangingResults) {
  FaultFixture fx;
  DistributedRuntime clean(fx.ds.graph, HashPartition(fx.ds.graph.num_vertices(), 4),
                           DistConfig{});
  Tensor clean_logits = fx.RunEpochs(clean, 2, /*seed=*/5);

  FaultInjector injector;
  injector.ScheduleMessageDrop(/*epoch=*/0, kAnyLayer, kAnyWorker, /*failures=*/2);
  injector.ScheduleMessageCorruption(/*epoch=*/1, /*layer=*/0, /*dst_worker=*/1);
  DistConfig config;
  config.fault = &injector;
  DistributedRuntime faulty(fx.ds.graph, HashPartition(fx.ds.graph.num_vertices(), 4),
                            config);
  std::vector<DistEpochStats> stats;
  Tensor faulty_logits = fx.RunEpochs(faulty, 2, /*seed=*/5, &stats);

  EXPECT_TRUE(AllClose(clean_logits, faulty_logits, 0.0f));
  EXPECT_EQ(stats[0].transfer_retries + stats[1].transfer_retries, 3);
  EXPECT_GT(stats[0].retry_wait_seconds, 0.0);
}

TEST(RuntimeRecoveryTest, StragglerSlowsTheEpochDown) {
  FaultFixture fx;
  FaultInjector injector;
  injector.ScheduleStraggler(/*epoch=*/0, /*worker=*/0, /*factor=*/100.0);
  DistConfig config;
  config.fault = &injector;
  DistributedRuntime faulty(fx.ds.graph, HashPartition(fx.ds.graph.num_vertices(), 4),
                            config);
  std::vector<DistEpochStats> stats;
  Tensor logits = fx.RunEpochs(faulty, 2, /*seed=*/5, &stats);

  // Epoch 0 carries a 100x straggler; epoch 1 is clean. Even with measurement
  // noise a two-order-of-magnitude slowdown must dominate.
  EXPECT_GT(stats[0].aggregation_seconds, stats[1].aggregation_seconds);
  EXPECT_EQ(injector.fired_count(FaultKind::kStraggler), 1);
}

// ------------------------------------------------- trainer crash recovery

TEST(TrainerRecoveryTest, CrashRecoveryKeepsLossTrajectoryBitIdentical) {
  FaultFixture fx;
  const uint32_t kWorkers = 4;
  const int kEpochs = 4;

  auto run = [&](FaultInjector* injector) {
    Rng model_rng(11);
    GcnConfig config;
    config.in_dim = fx.ds.feature_dim();
    config.num_classes = fx.ds.num_classes;
    GnnModel model = MakeGcnModel(config, model_rng);
    DistTrainConfig train_config;
    train_config.fault = injector;
    DistributedTrainer trainer(fx.ds.graph,
                               HashPartition(fx.ds.graph.num_vertices(), kWorkers),
                               train_config);
    Rng rng(5);
    std::vector<float> losses;
    std::vector<DistTrainEpochResult> results;
    for (int e = 0; e < kEpochs; ++e) {
      DistTrainEpochResult r = trainer.TrainEpoch(model, fx.ds.features, fx.ds.labels, rng);
      losses.push_back(r.loss);
      results.push_back(r);
    }
    return std::make_pair(losses, results);
  };

  auto [clean_losses, clean_results] = run(nullptr);

  FaultInjector injector;
  injector.ScheduleCrash(/*epoch=*/2, /*worker=*/1);
  auto [faulty_losses, faulty_results] = run(&injector);

  ASSERT_EQ(clean_losses.size(), faulty_losses.size());
  for (int e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(clean_losses[e], faulty_losses[e]) << "loss diverged at epoch " << e;
  }
  EXPECT_EQ(faulty_results[2].crashes_recovered, 1);
  EXPECT_GT(faulty_results[2].recovery_seconds, 0.0);
  EXPECT_EQ(faulty_results[0].crashes_recovered, 0);
}

// ------------------------------------------------- socket backend real kills

TEST(SocketRecoveryTest, RealKillRecoveryProducesBitIdenticalLogits) {
  // Genuine fault tolerance, not simulation: a worker PROCESS is SIGKILLed
  // mid-epoch, the supervisor notices only through heartbeat silence, migrates
  // the dead worker's roots onto survivors, and re-executes the epoch — and
  // the logits still match a fault-free MODELED run bit for bit.
  FaultFixture fx;
  const uint32_t kWorkers = 4;

  DistributedRuntime clean(fx.ds.graph,
                           HashPartition(fx.ds.graph.num_vertices(), kWorkers),
                           DistConfig{});
  Tensor clean_logits = fx.RunEpochs(clean, 3, /*seed=*/5);

  FaultInjector injector;
  injector.ScheduleKill(/*epoch=*/1, /*worker=*/2, /*layer=*/1);
  injector.ScheduleStraggler(/*epoch=*/2, /*worker=*/1, /*factor=*/50.0);
  DistConfig config;
  config.backend = DistBackend::kSocket;
  config.fault = &injector;
  DistributedRuntime faulty(fx.ds.graph,
                            HashPartition(fx.ds.graph.num_vertices(), kWorkers), config);
  std::vector<DistEpochStats> stats;
  Tensor faulty_logits = fx.RunEpochs(faulty, 3, /*seed=*/5, &stats);

  EXPECT_TRUE(AllClose(clean_logits, faulty_logits, 0.0f));

  // The kill fired for real and the recovery accounting landed on its epoch.
  EXPECT_EQ(injector.fired_count(FaultKind::kWorkerKill), 1);
  EXPECT_EQ(stats[1].crashes_recovered, 1);
  EXPECT_GT(stats[1].detection_seconds, 0.0);
  EXPECT_GT(stats[1].roots_migrated, 0);
  EXPECT_EQ(stats[0].crashes_recovered, 0);
  EXPECT_EQ(stats[2].crashes_recovered, 0);
  // The dead process stays dead: every vertex is owned by a survivor.
  for (uint32_t owner : faulty.partitioning().owner) {
    EXPECT_NE(owner, 2u);
  }
  // The straggler schedule rode along on the epoch after recovery.
  EXPECT_EQ(injector.fired_count(FaultKind::kStraggler), 1);
}

TEST(SocketRecoveryTest, TrainerRealKillKeepsLossTrajectoryBitIdentical) {
  // A replica process SIGKILLed right before the gradient broadcast: the
  // supervisor's CRC-ack collection detects the silence, migrates the dead
  // replica's roots, and training continues — with a loss trajectory bitwise
  // identical to a fault-free modeled run (the canonical union loss does not
  // depend on the partitioning, so losing a replica never moves the math).
  FaultFixture fx;
  const uint32_t kWorkers = 4;
  const int kEpochs = 4;

  auto run = [&](DistBackend backend, FaultInjector* injector) {
    Rng model_rng(11);
    GcnConfig config;
    config.in_dim = fx.ds.feature_dim();
    config.num_classes = fx.ds.num_classes;
    GnnModel model = MakeGcnModel(config, model_rng);
    DistTrainConfig train_config;
    train_config.backend = backend;
    train_config.fault = injector;
    DistributedTrainer trainer(fx.ds.graph,
                               HashPartition(fx.ds.graph.num_vertices(), kWorkers),
                               train_config);
    Rng rng(5);
    std::vector<float> losses;
    std::vector<DistTrainEpochResult> results;
    for (int e = 0; e < kEpochs; ++e) {
      DistTrainEpochResult r = trainer.TrainEpoch(model, fx.ds.features, fx.ds.labels, rng);
      losses.push_back(r.loss);
      results.push_back(r);
    }
    return std::make_pair(losses, results);
  };

  auto [clean_losses, clean_results] = run(DistBackend::kModeled, nullptr);

  FaultInjector injector;
  injector.ScheduleKill(/*epoch=*/2, /*worker=*/1);
  auto [faulty_losses, faulty_results] = run(DistBackend::kSocket, &injector);

  ASSERT_EQ(clean_losses.size(), faulty_losses.size());
  for (int e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(clean_losses[e], faulty_losses[e]) << "loss diverged at epoch " << e;
  }
  EXPECT_EQ(injector.fired_count(FaultKind::kWorkerKill), 1);
  EXPECT_EQ(faulty_results[2].crashes_recovered, 1);
  EXPECT_GT(faulty_results[2].recovery_seconds, 0.0);
  EXPECT_EQ(faulty_results[0].crashes_recovered, 0);
  EXPECT_EQ(faulty_results[3].crashes_recovered, 0);
}

// ------------------------------------------------- rotating checkpoints

class RotatingCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest runs the cases of this fixture in parallel.
    dir_ = ::testing::TempDir() + "/flexgraph_fault_ckpt_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(RotatingCheckpointTest, KeepsNewestFilesAndFindsLatestValid) {
  Rng rng(4);
  GcnConfig config;
  config.in_dim = 8;
  config.num_classes = 2;
  GnnModel model = MakeGcnModel(config, rng);

  for (int64_t epoch = 0; epoch < 5; ++epoch) {
    SaveRotatingCheckpoint(dir_, model, epoch, /*keep=*/2);
  }
  // Rotation kept only the two newest.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
  EXPECT_EQ(FindLatestValidCheckpoint(dir_), RotatingCheckpointPath(dir_, 4));
}

TEST_F(RotatingCheckpointTest, CorruptedNewestFallsBackToOlderValidFile) {
  Rng rng(4);
  GcnConfig config;
  config.in_dim = 8;
  config.num_classes = 2;
  GnnModel model = MakeGcnModel(config, rng);

  SaveRotatingCheckpoint(dir_, model, 0, /*keep=*/3);
  SaveRotatingCheckpoint(dir_, model, 1, /*keep=*/3);
  FaultInjector::TruncateFileTail(RotatingCheckpointPath(dir_, 1));
  EXPECT_EQ(FindLatestValidCheckpoint(dir_), RotatingCheckpointPath(dir_, 0));

  // Both corrupted -> nothing valid.
  FaultInjector::TruncateFileTail(RotatingCheckpointPath(dir_, 0));
  EXPECT_EQ(FindLatestValidCheckpoint(dir_), "");
}

// ------------------------------------------------- acceptance scenario

// The ISSUE.md acceptance gate: a seeded schedule combining a worker crash, a
// corrupted checkpoint, and a straggler completes with a bit-identical loss
// trajectory, recovery time in the epoch stats, and recovery counters in the
// metric registry.
TEST_F(RotatingCheckpointTest, FullFaultScheduleKeepsTrainingBitIdentical) {
  Dataset ds = MakeRedditLike(0.05, 3);
  const uint32_t kWorkers = 4;
  const int kEpochs = 5;

  auto run = [&](FaultInjector* injector, const std::string& ckpt_dir) {
    Rng model_rng(11);
    GcnConfig config;
    config.in_dim = ds.feature_dim();
    config.num_classes = ds.num_classes;
    GnnModel model = MakeGcnModel(config, model_rng);
    DistTrainConfig train_config;
    train_config.fault = injector;
    train_config.checkpoint_dir = ckpt_dir;
    train_config.checkpoint_every = 1;
    train_config.checkpoint_keep = 5;
    DistributedTrainer trainer(ds.graph, HashPartition(ds.graph.num_vertices(), kWorkers),
                               train_config);
    Rng rng(5);
    std::vector<float> losses;
    double recovery = 0.0;
    for (int e = 0; e < kEpochs; ++e) {
      DistTrainEpochResult r = trainer.TrainEpoch(model, ds.features, ds.labels, rng);
      losses.push_back(r.loss);
      recovery += r.recovery_seconds;
    }
    return std::make_pair(losses, recovery);
  };

  auto [clean_losses, clean_recovery] = run(nullptr, "");
  EXPECT_EQ(clean_recovery, 0.0);

  obs::MetricRegistry::Get().Reset();
  FaultInjector injector(/*seed=*/7);
  injector.ScheduleCrash(/*epoch=*/2, /*worker=*/1)
      .ScheduleStraggler(/*epoch=*/3, /*worker=*/0, /*factor=*/4.0)
      .ScheduleCheckpointTruncation(/*epoch=*/4);
  auto [faulty_losses, faulty_recovery] = run(&injector, dir_);

  for (int e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(clean_losses[e], faulty_losses[e]) << "loss diverged at epoch " << e;
  }
  EXPECT_GT(faulty_recovery, 0.0);

  // The epoch-4 checkpoint was truncated; resume falls back to epoch 3.
  EXPECT_EQ(FindLatestValidCheckpoint(dir_), RotatingCheckpointPath(dir_, 3));

  // Recovery events are visible in the metric registry.
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  EXPECT_EQ(snap.counters.at("fault.worker_crashes"), 1);
  EXPECT_EQ(snap.counters.at("fault.stragglers"), 1);
  EXPECT_EQ(snap.counters.at("fault.checkpoint_truncations"), 1);
  EXPECT_GE(snap.counters.at("ckpt.invalid_skipped"), 1);
  ASSERT_NE(snap.histograms.find("fault.recovery_seconds"), snap.histograms.end());
  EXPECT_GT(snap.histograms.at("fault.recovery_seconds").sum, 0.0);
}

}  // namespace
}  // namespace flexgraph
