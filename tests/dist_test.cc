// Tests for the simulated distributed runtime: communication plans,
// distributed ≡ single-machine results, pipeline invariants, and the ADB
// driver loop.
#include "src/dist/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/data/datasets.h"
#include "src/dist/adb_driver.h"
#include "src/dist/dist_trainer.h"
#include "src/models/gcn.h"
#include "src/models/graphsage.h"
#include "src/models/magnn.h"
#include "src/models/pinsage.h"
#include "src/obs/metrics.h"
#include "src/tensor/ops_dense.h"
#include "src/util/check.h"
#include "tests/test_util.h"

namespace flexgraph {
namespace {

TEST(CommPlanTest, HandComputedCounts) {
  // Roots {0,1} on worker 0; vertices 0,1 owned by 0; 2,3 owned by 1.
  // HDG: 0 ← {1, 2, 3}; 1 ← {2}.
  HdgBuilder builder(SchemaTree::Flat(), {0, 1});
  for (VertexId leaf : {1u, 2u, 3u}) {
    const VertexId l[] = {leaf};
    builder.AddRecord(0, 0, l);
  }
  const VertexId l2[] = {2};
  builder.AddRecord(1, 0, l2);
  Hdg hdg = builder.Build();

  Partitioning parts;
  parts.num_parts = 2;
  parts.owner = {0, 0, 1, 1};

  std::vector<uint64_t> out_refs;
  CommPlan plan = BuildCommPlan(hdg, parts, 0, &out_refs);
  EXPECT_EQ(plan.total_leaf_refs, 4u);
  EXPECT_EQ(plan.local_leaf_refs, 1u);       // leaf 1
  EXPECT_EQ(plan.remote_leaf_refs, 3u);      // 2, 3, 2
  EXPECT_EQ(plan.distinct_remote_leaves, 2u);  // {2, 3}
  EXPECT_EQ(plan.raw_senders, 1u);
  // Pipelined rows: root 0 needs one partial from worker 1, root 1 too.
  EXPECT_EQ(plan.partial_rows_in, 2u);
  EXPECT_EQ(plan.pp_senders, 1u);
  // Worker 0 references 1 row from itself, 3 from worker 1.
  EXPECT_EQ(out_refs[0], 1u);
  EXPECT_EQ(out_refs[1], 3u);
}

TEST(CommPlanTest, PipelinedBytesSmallerOnDenseNeighborhoods) {
  // A root with many remote leaves: raw sync ships every distinct leaf, the
  // pipelined path ships one assembled row per (segment, owner).
  HdgBuilder builder(SchemaTree::Flat(), {0});
  for (VertexId leaf = 1; leaf <= 50; ++leaf) {
    const VertexId l[] = {leaf};
    builder.AddRecord(0, 0, l);
  }
  Hdg hdg = builder.Build();
  Partitioning parts;
  parts.num_parts = 2;
  parts.owner.assign(51, 1);
  parts.owner[0] = 0;
  CommPlan plan = BuildCommPlan(hdg, parts, 0);
  EXPECT_EQ(plan.distinct_remote_leaves, 50u);
  EXPECT_EQ(plan.partial_rows_in, 1u);
  EXPECT_LT(plan.PipelinedBytesIn(64), plan.RawBytesIn(64));
}

class DistEquivalenceSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DistEquivalenceSweep, GcnDistributedMatchesSingleMachine) {
  const uint32_t num_workers = GetParam();
  Dataset ds = MakeRedditLike(0.05, 3);
  Rng model_rng(11);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakeGcnModel(config, model_rng);

  Engine engine(ds.graph);
  Rng rng1(5);
  StageTimes times;
  Tensor single = engine.Infer(model, ds.features, rng1, &times);

  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), num_workers),
                             DistConfig{});
  Rng rng2(5);
  Tensor distributed;
  runtime.RunEpoch(model, ds.features, rng2, &distributed);
  EXPECT_TRUE(AllClose(single, distributed, 1e-3f)) << num_workers << " workers";
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, DistEquivalenceSweep, ::testing::Values(1, 2, 4, 8));

TEST(DistRuntimeTest, MagnnDistributedMatchesSingleMachine) {
  Dataset ds = MakeImdbLike(0.15, 3);
  Rng model_rng(13);
  MagnnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakeMagnnModel(config, model_rng);

  Engine engine(ds.graph);
  Rng rng1(5);
  StageTimes times;
  Tensor single = engine.Infer(model, ds.features, rng1, &times);

  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 4), DistConfig{});
  Rng rng2(5);
  Tensor distributed;
  runtime.RunEpoch(model, ds.features, rng2, &distributed);
  EXPECT_TRUE(AllClose(single, distributed, 1e-3f));
}

// Σ over the in-process workers of the raw rows each would receive in one
// epoch: every layer ships its input dimension.
double RawBytesPerEpoch(const DistributedRuntime& runtime, const std::vector<int64_t>& dims) {
  double bytes = 0.0;
  for (const WorkerState& worker : runtime.workers()) {
    if (worker.roots.empty()) {
      continue;
    }
    for (const int64_t d : dims) {
      bytes += static_cast<double>(worker.plan.RawBytesIn(d));
    }
  }
  return bytes;
}

TEST(DistRuntimeTest, PipelineDoesNotChangeResults) {
  Dataset ds = MakeRedditLike(0.05, 3);
  Rng model_rng(17);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakeGcnModel(config, model_rng);

  Engine engine(ds.graph);
  Rng rng1(5);
  StageTimes times;
  Tensor single = engine.Infer(model, ds.features, rng1, &times);

  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 4), DistConfig{});
  Rng rng2(5);
  Tensor pipelined;
  DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng2, &pipelined);

  EXPECT_TRUE(AllClose(single, pipelined, 1e-4f));
  // The epoch moved data, and adaptive pipelining never ships more bytes
  // than raw synchronization would (it falls back to batched raw messages
  // when assembled partials would be larger — paper §5).
  EXPECT_GT(stats.comm_bytes_total, 0.0);
  EXPECT_LE(stats.comm_bytes_total, RawBytesPerEpoch(runtime, {config.in_dim, config.hidden_dim}));
}

TEST(DistRuntimeTest, SingleWorkerHasNoCommunication) {
  Dataset ds = MakeRedditLike(0.05, 3);
  Rng model_rng(19);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakeGcnModel(config, model_rng);

  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 1), DistConfig{});
  Rng rng(5);
  DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng, nullptr);
  EXPECT_EQ(stats.comm_bytes_total, 0.0);
  EXPECT_GT(stats.makespan_seconds, 0.0);
}

TEST(DistRuntimeTest, TrainingSimulationAddsBackwardAndAllreduce) {
  Dataset ds = MakeRedditLike(0.05, 3);
  Rng model_rng(23);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakeGcnModel(config, model_rng);

  DistConfig training;
  training.backward_compute_factor = 1.0;
  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 4), training);
  Rng rng(5);
  DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng, nullptr);
  EXPECT_GT(stats.backward_seconds, 0.0);
  EXPECT_GT(stats.makespan_seconds, stats.aggregation_seconds + stats.update_seconds);
}

TEST(DistRuntimeTest, NonCommutativeModelMatchesSingleMachine) {
  // GraphSAGE-LSTM: order-dependent aggregation forces the batched-comm
  // fallback, but the distributed results must still equal single-machine
  // execution (leaf order within each segment is identical either way).
  Dataset ds = MakeRedditLike(0.04, 3);
  Rng model_rng(31);
  GraphSageConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  config.aggregator = SageAggregator::kLstm;
  GnnModel model = MakeGraphSageModel(config, model_rng);
  ASSERT_FALSE(model.bottom_reduce_commutative);

  Engine engine(ds.graph);
  Rng rng1(5);
  StageTimes times;
  Tensor single = engine.Infer(model, ds.features, rng1, &times);

  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 4), DistConfig{});
  Rng rng2(5);
  Tensor distributed;
  DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng2, &distributed);
  EXPECT_TRUE(AllClose(single, distributed, 1e-3f));
  // Non-commutative ⇒ the pipelined epoch must have shipped raw bytes (the
  // fallback), exactly the raw rows every worker's comm plan asks for.
  EXPECT_DOUBLE_EQ(stats.comm_bytes_total,
                   RawBytesPerEpoch(runtime, {config.in_dim, config.hidden_dim}));
}

TEST(DistRuntimeTest, BothTimelinesReportedFromOneEpoch) {
  Dataset ds = MakeRedditLike(0.05, 3);
  Rng model_rng(33);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakeGcnModel(config, model_rng);
  DistributedRuntime runtime(ds.graph, HashPartition(ds.graph.num_vertices(), 4), DistConfig{});
  Rng rng(5);
  DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng, nullptr);
  EXPECT_GT(stats.aggregation_seconds_pipelined, 0.0);
  EXPECT_GT(stats.aggregation_seconds_raw, 0.0);
  // The reported stage time is the pipelined timeline.
  EXPECT_DOUBLE_EQ(stats.aggregation_seconds, stats.aggregation_seconds_pipelined);
}

TEST(DistTrainerTest, MatchesSingleMachineTrajectory) {
  // Synchronous data-parallel training with identical replicas optimizes the
  // single-machine objective, and the trainer evaluates it in its canonical
  // union form (one AgSoftmaxCrossEntropy over all vertices — the same code
  // path Engine::TrainEpoch runs): with the same init and lr, the loss
  // trajectory is BITWISE identical, not merely close.
  Dataset ds = MakeRedditLike(0.05, 3);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;

  Rng rng_a(41);
  GnnModel model_a = MakeGcnModel(config, rng_a);
  Engine engine(ds.graph);
  SgdOptimizer opt(0.1f);
  std::vector<float> single_losses;
  Rng epoch_rng_a(5);
  for (int e = 0; e < 5; ++e) {
    single_losses.push_back(
        engine.TrainEpoch(model_a, ds.features, ds.labels, opt, epoch_rng_a).loss);
  }

  Rng rng_b(41);
  GnnModel model_b = MakeGcnModel(config, rng_b);
  DistTrainConfig dist_config;
  dist_config.learning_rate = 0.1f;
  DistributedTrainer trainer(ds.graph, HashPartition(ds.graph.num_vertices(), 4), dist_config);
  Rng epoch_rng_b(5);
  for (int e = 0; e < 5; ++e) {
    DistTrainEpochResult r = trainer.TrainEpoch(model_b, ds.features, ds.labels, epoch_rng_b);
    EXPECT_EQ(r.loss, single_losses[static_cast<std::size_t>(e)]) << "epoch " << e;
    EXPECT_GT(r.compute_seconds, 0.0);
  }
}

TEST(DistBackendParityTest, SocketParitySweep) {
  // The tentpole invariant: the socket backend (real forked processes, real
  // bytes over Unix sockets) computes BITWISE-identical logits and losses to
  // the modeled backend, at every cluster size. The backend changes how bytes
  // move, never the math.
  Dataset ds = MakeRedditLike(0.04, 3);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;

  for (uint32_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));

    // Forward epochs on the runtime.
    Rng model_rng_a(41);
    GnnModel model_a = MakeGcnModel(config, model_rng_a);
    DistConfig modeled;
    DistributedRuntime modeled_rt(ds.graph, HashPartition(ds.graph.num_vertices(), workers),
                                  modeled);
    Rng rng_a(5);

    Rng model_rng_b(41);
    GnnModel model_b = MakeGcnModel(config, model_rng_b);
    DistConfig socket_config;
    socket_config.backend = DistBackend::kSocket;
    DistributedRuntime socket_rt(ds.graph, HashPartition(ds.graph.num_vertices(), workers),
                                 socket_config);
    Rng rng_b(5);

    for (int epoch = 0; epoch < 3; ++epoch) {
      Tensor modeled_logits;
      Tensor socket_logits;
      modeled_rt.RunEpoch(model_a, ds.features, rng_a, &modeled_logits);
      DistEpochStats stats = socket_rt.RunEpoch(model_b, ds.features, rng_b, &socket_logits);
      EXPECT_TRUE(BitwiseEqual(modeled_logits, socket_logits))
          << "epoch " << epoch;
      EXPECT_GT(stats.makespan_seconds, 0.0);
    }

    // Training: the socket trainer keeps one real parameter replica per
    // worker process in sync; its loss trajectory must equal the modeled
    // trainer's bitwise.
    Rng model_rng_c(41);
    GnnModel model_c = MakeGcnModel(config, model_rng_c);
    DistTrainConfig modeled_train;
    DistributedTrainer modeled_trainer(
        ds.graph, HashPartition(ds.graph.num_vertices(), workers), modeled_train);
    Rng rng_c(5);

    Rng model_rng_d(41);
    GnnModel model_d = MakeGcnModel(config, model_rng_d);
    DistTrainConfig socket_train;
    socket_train.backend = DistBackend::kSocket;
    DistributedTrainer socket_trainer(
        ds.graph, HashPartition(ds.graph.num_vertices(), workers), socket_train);
    Rng rng_d(5);

    for (int epoch = 0; epoch < 3; ++epoch) {
      const float modeled_loss =
          modeled_trainer.TrainEpoch(model_c, ds.features, ds.labels, rng_c).loss;
      const float socket_loss =
          socket_trainer.TrainEpoch(model_d, ds.features, ds.labels, rng_d).loss;
      EXPECT_EQ(modeled_loss, socket_loss) << "epoch " << epoch;
    }
    // The replicas themselves are checked every epoch: each worker acks the
    // gradient broadcast with a CRC-32 of its updated parameters and the
    // supervisor FLEX_CHECKs it against its own — reaching here means no
    // replica diverged.
  }
}

TEST(DistBackendParityTest, EveryConnectionCountsAHeartbeat) {
  // Each worker writes a kHeartbeat right after its kHello, ahead of any
  // reply, so the supervisor counts a beat per connection even when the whole
  // run ends inside one beat interval. The interval here is 30 s, far longer
  // than the epoch, so only those connect beats can be counted.
  constexpr uint32_t kWorkers = 3;
  Dataset ds = MakeRedditLike(0.04, 3);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  Rng model_rng(41);
  GnnModel model = MakeGcnModel(config, model_rng);
  DistConfig socket_config;
  socket_config.backend = DistBackend::kSocket;
  socket_config.retry.timeout_seconds = 60.0;

  const obs::Counter& beats =
      obs::MetricRegistry::Get().GetCounter("transport.heartbeats_received");
  const int64_t before = beats.value();
  DistributedRuntime socket_rt(ds.graph, HashPartition(ds.graph.num_vertices(), kWorkers),
                               socket_config);
  Rng rng(5);
  Tensor logits;
  socket_rt.RunEpoch(model, ds.features, rng, &logits);
  EXPECT_GE(beats.value() - before, static_cast<int64_t>(kWorkers));
}

TEST(DistBackendParityTest, EmptyLevelWorkersOnBothBackends) {
  // Thirty-two partitions of a 40-vertex graph hand some workers roots
  // without a single MAGNN metapath instance, so every level of their plans
  // has zero input rows. Both backends must run those workers and agree bit
  // for bit, and the distributed logits must match single-machine ones.
  constexpr uint32_t kWorkers = 32;
  Dataset ds = WithSyntheticVertexTypes(MakeRedditLike(0.005, 1), 3);
  MagnnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  const Partitioning parts = HashPartition(ds.graph.num_vertices(), kWorkers);

  Rng model_rng(41);
  GnnModel model = MakeMagnnModel(config, model_rng);
  Engine engine(ds.graph);
  Rng single_rng(5);
  StageTimes times;
  const Tensor single = engine.Infer(model, ds.features, single_rng, &times);

  DistributedRuntime modeled_rt(ds.graph, parts, DistConfig{});
  DistConfig socket_config;
  socket_config.backend = DistBackend::kSocket;
  DistributedRuntime socket_rt(ds.graph, parts, socket_config);
  Rng modeled_rng(5);
  Rng socket_rng(5);
  for (int epoch = 0; epoch < 2; ++epoch) {
    Tensor modeled_logits;
    Tensor socket_logits;
    modeled_rt.RunEpoch(model, ds.features, modeled_rng, &modeled_logits);
    socket_rt.RunEpoch(model, ds.features, socket_rng, &socket_logits);
    EXPECT_TRUE(BitwiseEqual(modeled_logits, socket_logits)) << "epoch " << epoch;
    EXPECT_TRUE(AllClose(single, modeled_logits, 1e-3f)) << "epoch " << epoch;
  }

  const auto& workers = modeled_rt.workers();
  EXPECT_TRUE(std::any_of(workers.begin(), workers.end(), [](const WorkerState& w) {
    return !w.roots.empty() && w.hdg.num_instances() == 0;
  })) << "no worker has an empty level; the case no longer covers it";
}

TEST(DistBackendParityTest, NetworkModelValidatedAtConstruction) {
  // A zero bandwidth poisons every downstream makespan with inf; a negative
  // latency is time travel. Both must fail at the construction boundary, not
  // epochs later.
  Dataset ds = MakeRedditLike(0.02, 3);
  DistConfig bad_bw;
  bad_bw.network.bandwidth_bytes_per_sec = 0.0;
  EXPECT_THROW(DistributedRuntime(ds.graph, HashPartition(ds.graph.num_vertices(), 2), bad_bw),
               CheckError);
  DistConfig bad_latency;
  bad_latency.network.latency_seconds = -1.0;
  EXPECT_THROW(
      DistributedRuntime(ds.graph, HashPartition(ds.graph.num_vertices(), 2), bad_latency),
      CheckError);

  DistTrainConfig bad_train;
  bad_train.network.bandwidth_bytes_per_sec = -3.0;
  EXPECT_THROW(
      DistributedTrainer(ds.graph, HashPartition(ds.graph.num_vertices(), 2), bad_train),
      CheckError);
}

TEST(DistTrainerTest, AllreduceAccounting) {
  Dataset ds = MakeRedditLike(0.04, 3);
  GcnConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  Rng rng(43);
  GnnModel model = MakeGcnModel(config, rng);

  uint64_t param_bytes = 0;
  for (const Variable& p : model.Parameters()) {
    param_bytes += static_cast<uint64_t>(p.value().numel()) * sizeof(float);
  }

  DistributedTrainer solo(ds.graph, HashPartition(ds.graph.num_vertices(), 1),
                          DistTrainConfig{});
  Rng r1(5);
  EXPECT_EQ(solo.TrainEpoch(model, ds.features, ds.labels, r1).allreduce_bytes, 0u);

  DistributedTrainer four(ds.graph, HashPartition(ds.graph.num_vertices(), 4),
                          DistTrainConfig{});
  Rng r2(5);
  DistTrainEpochResult r = four.TrainEpoch(model, ds.features, ds.labels, r2);
  EXPECT_EQ(r.allreduce_bytes, 2 * param_bytes * 3 / 4);
  EXPECT_GT(r.allreduce_seconds, 0.0);
}

TEST(AdbDriverTest, MetricsMatchHdgStructure) {
  HdgBuilder builder(SchemaTree::WithLeafTypes({"a", "b"}), {0, 1});
  const VertexId p1[] = {2, 3};
  const VertexId p2[] = {4};
  builder.AddRecord(0, 0, p1);
  builder.AddRecord(0, 0, p1);
  builder.AddRecord(0, 1, p2);
  Hdg hdg = builder.Build();
  auto metrics = ExtractRootMetrics(hdg, /*feature_dim=*/10);
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_DOUBLE_EQ(metrics[0].neighbor_counts[0], 2.0);
  EXPECT_DOUBLE_EQ(metrics[0].neighbor_counts[1], 1.0);
  // Type a instances have 2 leaves × 10 dims × 4 bytes = 80 bytes.
  EXPECT_DOUBLE_EQ(metrics[0].instance_sizes[0], 80.0);
  EXPECT_DOUBLE_EQ(metrics[0].instance_sizes[1], 40.0);
  EXPECT_DOUBLE_EQ(metrics[1].neighbor_counts[0], 0.0);
}

TEST(AdbDriverTest, EndToEndImprovesPinSageBalance) {
  // Power-law graph + PinSage: hub-heavy roots make hash partitioning skewed
  // in *workload* even though vertex counts are balanced.
  Dataset ds = MakeTwitterLike(0.1, 3);
  Rng model_rng(29);
  PinSageConfig config;
  config.in_dim = ds.feature_dim();
  config.num_classes = ds.num_classes;
  GnnModel model = MakePinSageModel(config, model_rng);

  Partitioning hash = HashPartition(ds.graph.num_vertices(), 8);
  AdbDriverOptions options;
  options.adb.balance_threshold = 1.02;
  Rng rng(31);
  AdbDriverResult result = RunAdbBalancing(ds.graph, model, hash, ds.feature_dim(), options, rng);
  EXPECT_TRUE(result.cost_model.fitted());
  EXPECT_LE(result.adb.balance_after, result.adb.balance_before);
  // The fit must be sane: positive predictions overall.
  double total = 0.0;
  for (double c : result.predicted_root_cost) {
    total += c;
  }
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace flexgraph
