// e2e_bench — end-to-end GNN training benchmark (README.md in this directory).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//   e2e_bench --dump-reference
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the traced driver and reports the per-layer metrics. Informational lines
// come first; the last stdout line is the JSON result. The exit code is 0
// only when every correctness check passed. --dump-reference prints the
// reference loss trajectories (reference_losses.inc) for kReferenceSeed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "span_recorder.h"
#include "src/dist/dist_trainer.h"
#include "src/dist/runtime.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/partition/partition.h"
#include "src/util/crc32.h"
#include "traced_trainer.h"
#include "workloads.h"

namespace {

using e2e::NowSeconds;
using e2e::WorkloadSpec;
using flexgraph::exec::SetNumThreads;

// Besides the setup the timed part runs on, setup is repeated afterwards at
// least kMinExtraSetups times and for at least kSetupShare of --seconds;
// setup_s is taken over all of them.
constexpr int kMinExtraSetups = 3;
constexpr double kSetupShare = 0.2;
// Times of phases where one thread computes alone (1-thread training epochs;
// single-machine setup and inference) are reported as this quantile of the
// raw samples (README.md, "Statistics").
constexpr double kTimeQuantile = 0.9;
// One round of interleaved blocks (each block runs at least one epoch).
constexpr double kRoundSeconds = 1.5;
// A timed phase also needs this many samples before it may end.
constexpr std::size_t kMinSamples = 3;
constexpr int kMaxEpochs = 1000000;
constexpr int kThreadsHigh = 4;
// Fixed-count phases of the traced run (fixed so their counts repeat).
constexpr int kProfiledEpochs = 2;
constexpr int kDistTraceEpochs = 5;
constexpr int kLevelProbeReps = 3;

// Epochs attempted vs failed, with the first few failure reasons.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> reasons;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (reasons.size() < 8) {
        reasons.push_back(what);
      }
    }
  }
};

// Checks one loss trajectory against the reference seed's recording.
class LossChecker {
 public:
  LossChecker(const WorkloadSpec& spec, uint64_t seed, const std::string& kind, Tally* tally)
      : reference_(seed == e2e::kReferenceSeed
                       ? e2e::ReferenceLosses(std::string(spec.name) + "/" + kind)
                       : nullptr),
        label_(std::string(spec.name) + "/" + kind),
        tally_(tally) {}

  void Next(float loss) {
    char what[160];
    std::snprintf(what, sizeof(what), "%s epoch %zu loss %.9g outside reference",
                  label_.c_str(), index_, static_cast<double>(loss));
    tally_->Check(e2e::LossOk(reference_, index_, loss), what);
    ++index_;
  }

 private:
  const std::vector<float>* reference_;
  std::string label_;
  Tally* tally_;
  std::size_t index_ = 0;
};

bool AllFinite(const flexgraph::Tensor& t) {
  for (int64_t i = 0; i < static_cast<int64_t>(t.numel()); ++i) {
    if (!std::isfinite(t.data()[i])) {
      return false;
    }
  }
  return true;
}

uint32_t TensorCrc(const flexgraph::Tensor& t) { return flexgraph::Crc32(t.data(), t.ByteSize()); }

// Runs Trainer::Fit, calling `step(epoch_seconds, loss, val_accuracy)` from
// its on_epoch hook; `step` returns false to stop. An epoch's time runs from
// the end of the previous callback (or `start`) to the start of this one.
void RunFit(e2e::TrainState& state, double start,
            const std::function<bool(double, float, float)>& step) {
  double epoch_start = start;
  flexgraph::TrainerOptions options = e2e::FitOptions(kMaxEpochs);
  options.on_epoch = [&](int, float loss, float accuracy) {
    const bool more = step(NowSeconds() - epoch_start, loss, accuracy);
    epoch_start = NowSeconds();
    return more;
  };
  flexgraph::Trainer trainer(state.engine, options);
  trainer.Fit(state.model, state.ds.features, state.ds.labels, state.split, state.rng);
}

void PrintPhase(const char* phase, int threads, const std::vector<double>& samples) {
  std::printf("phase %-10s threads=%d %s\n", phase, threads, e2e::SampleSummary(samples).c_str());
}

flexgraph::DistConfig ForwardConfig() {
  flexgraph::DistConfig config;
  config.backend = flexgraph::DistBackend::kSocket;
  return config;
}

flexgraph::DistTrainConfig TrainConfig() {
  flexgraph::DistTrainConfig config;
  config.learning_rate = e2e::kLearningRate;
  config.backend = flexgraph::DistBackend::kSocket;
  return config;
}

// ---------------------------------------------------------------------------
// End-to-end runs (tracing off)
// ---------------------------------------------------------------------------

struct E2eSamples {
  std::vector<double> setup;
  std::vector<double> epoch_t1;
  std::vector<double> epoch_t4;
  std::vector<double> fwd_epoch;
  double peak_rss_mb = 0.0;  // read before the extra setups

  bool Enough() const {
    return epoch_t1.size() >= kMinSamples && epoch_t4.size() >= kMinSamples &&
           fwd_epoch.size() >= kMinSamples;
  }
};

// The extra setups: `setup_once` until it has run kMinExtraSetups times and
// kSetupShare of `seconds` has passed. They run after the timed part, so
// the peak RSS read before them is that of one setup plus the timed part,
// as a user's run would see it.
void RepeatSetup(double seconds, const std::function<void()>& setup_once) {
  const double start = NowSeconds();
  for (int done = 0; done < kMinExtraSetups || NowSeconds() - start < kSetupShare * seconds;
       ++done) {
    setup_once();
  }
}

// One single-machine setup kept for the timed rounds.
struct FitRun {
  std::unique_ptr<e2e::TrainState> state;
  std::unique_ptr<LossChecker> losses;
  double start = 0.0;  // workload start, for time-to-accuracy
};

// Setup: dataset, model, split and the first Fit epoch (HDG build, plan
// compile, arena growth) at 1 thread.
void SetUpFit(const WorkloadSpec& spec, uint64_t seed, Tally& tally, FitRun& run,
              std::vector<double>& setup_samples) {
  run = FitRun();  // free the previous setup before building the next
  SetNumThreads(1);
  run.start = NowSeconds();
  run.state = std::make_unique<e2e::TrainState>(spec, seed, spec.scale);
  run.losses = std::make_unique<LossChecker>(spec, seed, "fit", &tally);
  RunFit(*run.state, run.start, [&](double, float loss, float) {
    run.losses->Next(loss);
    return false;
  });
  setup_samples.push_back(NowSeconds() - run.start);
}

// Single machine: rounds of a 1-thread Fit block, a 4-thread Fit block (one
// trajectory across both; the numerics are thread-invariant) and a 1-thread
// Engine::Infer block, until `seconds` have passed. Interleaving spreads a
// slow spell of the host over all three metrics instead of one.
void RunSingleMachineE2e(const WorkloadSpec& spec, uint64_t seed, double seconds,
                         E2eSamples& s, Tally& tally) {
  FitRun run;
  SetUpFit(spec, seed, tally, run, s.setup);

  double time_to_acc = -1.0;
  auto fit_block = [&](int threads, double budget, std::vector<double>& samples) {
    SetNumThreads(threads);
    const double start = NowSeconds();
    RunFit(*run.state, start, [&](double epoch_s, float loss, float accuracy) {
      run.losses->Next(loss);
      samples.push_back(epoch_s);
      if (time_to_acc < 0.0 && spec.accuracy_target > 0.0f &&
          accuracy >= spec.accuracy_target) {
        time_to_acc = NowSeconds() - run.start;
      }
      return NowSeconds() - start < budget;
    });
  };
  // Inference draws from its own stream so PinSage's walks for training stay
  // on the recorded trajectory. Logits must repeat bitwise within a block
  // for static HDGs (per-epoch HDGs resample every call).
  flexgraph::Rng infer_rng(seed + 3);
  const bool static_hdg = run.state->model.cache_policy == flexgraph::HdgCachePolicy::kStatic;
  auto infer_block = [&](double budget) {
    SetNumThreads(1);
    const double block_start = NowSeconds();
    uint32_t block_crc = 0;
    for (int i = 0; i == 0 || NowSeconds() - block_start < budget; ++i) {
      const double start = NowSeconds();
      flexgraph::StageTimes times;
      const flexgraph::Tensor logits =
          run.state->engine.Infer(run.state->model, run.state->ds.features, infer_rng, &times);
      s.fwd_epoch.push_back(NowSeconds() - start);
      const uint32_t crc = TensorCrc(logits);
      block_crc = i == 0 ? crc : block_crc;
      tally.Check(AllFinite(logits) && (!static_hdg || crc == block_crc),
                  "Engine::Infer logits not finite or not repeatable");
    }
  };
  const double rounds_start = NowSeconds();
  while (NowSeconds() - rounds_start < seconds || !s.Enough()) {
    fit_block(1, 0.4 * kRoundSeconds, s.epoch_t1);
    fit_block(kThreadsHigh, 0.3 * kRoundSeconds, s.epoch_t4);
    infer_block(0.3 * kRoundSeconds);
  }
  if (spec.accuracy_target > 0.0f) {
    char what[96];
    std::snprintf(what, sizeof(what), "validation accuracy never reached %.2f",
                  static_cast<double>(spec.accuracy_target));
    tally.Check(time_to_acc >= 0.0, what);
    std::printf("time_to_acc_s %.6f (target val accuracy %.2f)\n", time_to_acc,
                static_cast<double>(spec.accuracy_target));
  }
  s.peak_rss_mb = e2e::PeakRssMb();
  run = FitRun();
  RepeatSetup(seconds, [&] {
    SetUpFit(spec, seed, tally, run, s.setup);
    run = FitRun();
  });
  PrintPhase("train_t1", 1, s.epoch_t1);
  PrintPhase("train_t4", kThreadsHigh, s.epoch_t4);
  PrintPhase("infer_t1", 1, s.fwd_epoch);
}

// Socket cluster: setup = dataset + model + the first RunEpoch (fork +
// worker Prepare) + the first TrainEpoch (fork of the replicas). The
// runtime's workers are reaped before the trainer forks its own, so at most
// 3 workers + the driver exist at once. The kept setup runs a forward phase
// of DistributedRuntime::RunEpoch with every process at 1 thread, whose last
// logits must match a single-machine Engine::Infer CRC; then rounds of
// DistributedTrainer::TrainEpoch blocks with the driver at 1 and at 4 kernel
// threads (the replicas stay at 1; they idle while the driver computes).
void RunSocketE2e(const WorkloadSpec& spec, uint64_t seed, double seconds, E2eSamples& s,
                  Tally& tally) {
  auto run_once = [&](bool timed) {
    SetNumThreads(1);
    const double t0 = NowSeconds();
    e2e::ModelState state(spec, seed, spec.scale);
    const flexgraph::Partitioning parts =
        flexgraph::HashPartition(state.ds.graph.num_vertices(), spec.workers);
    double setup = 0.0;
    {
      flexgraph::DistributedRuntime runtime(state.ds.graph, parts, ForwardConfig());
      flexgraph::Rng rng(seed);
      flexgraph::Tensor logits;
      runtime.RunEpoch(state.model, state.ds.features, rng, &logits);
      tally.Check(AllFinite(logits), "RunEpoch logits not finite");
      setup = NowSeconds() - t0;
      if (timed) {
        const double phase_start = NowSeconds();
        while (NowSeconds() - phase_start < 0.3 * seconds || s.fwd_epoch.size() < kMinSamples) {
          const double start = NowSeconds();
          runtime.RunEpoch(state.model, state.ds.features, rng);
          s.fwd_epoch.push_back(NowSeconds() - start);
          ++tally.attempted;  // a failing epoch throws
        }
        // Untimed: one more epoch that returns its logits, checked against
        // single-machine inference of the same model.
        runtime.RunEpoch(state.model, state.ds.features, rng, &logits);
        flexgraph::Engine engine(state.ds.graph);
        flexgraph::Rng infer_rng(seed);
        const flexgraph::Tensor expected =
            engine.Infer(state.model, state.ds.features, infer_rng, nullptr);
        const uint32_t got = TensorCrc(logits);
        const uint32_t want = TensorCrc(expected);
        std::printf("logits crc32 0x%08x (single machine 0x%08x)\n", got, want);
        tally.Check(got == want, "socket logits differ from single-machine Engine::Infer");
      }
    }
    const double train_start = NowSeconds();
    flexgraph::DistributedTrainer trainer(state.ds.graph, parts, TrainConfig());
    flexgraph::Rng train_rng(seed + 2);
    LossChecker losses(spec, seed, "train", &tally);
    auto train_block = [&](int threads, double budget, std::vector<double>* samples) {
      SetNumThreads(threads);
      const double block_start = NowSeconds();
      do {
        const double start = NowSeconds();
        const flexgraph::DistTrainEpochResult result =
            trainer.TrainEpoch(state.model, state.ds.features, state.ds.labels, train_rng);
        if (samples != nullptr) {
          samples->push_back(NowSeconds() - start);
        }
        losses.Next(result.loss);
      } while (NowSeconds() - block_start < budget);
    };
    train_block(1, 0.0, nullptr);  // forks the replicas
    setup += NowSeconds() - train_start;
    s.setup.push_back(setup);
    if (timed) {
      // Rounds of a 1-thread and a 4-thread block on one trajectory, as on a
      // single machine: a 1-thread phase run in one piece keeps the driver
      // thread on one vCPU for seconds, and vCPU speeds differ, so its median
      // would flip between runs (README.md, "Statistics"). The peak RSS is
      // read after the first 1-thread block, before the driver's first
      // 4-thread epoch: TrainEpoch computes on the heap, outside any
      // workspace arena, and the per-thread allocator state the 4-thread
      // blocks leave behind varies by 15-40 MB from run to run.
      const double rounds_start = NowSeconds();
      for (int round = 0; NowSeconds() - rounds_start < 0.7 * seconds ||
                          s.epoch_t1.size() < kMinSamples || s.epoch_t4.size() < kMinSamples;
           ++round) {
        train_block(1, 0.4 * kRoundSeconds, &s.epoch_t1);
        if (round == 0) {
          s.peak_rss_mb = e2e::PeakRssMb();
          train_block(kThreadsHigh, 0.0, nullptr);  // warm-up of the 4-thread pool
        }
        train_block(kThreadsHigh, 0.3 * kRoundSeconds, &s.epoch_t4);
      }
      SetNumThreads(1);
    }
  };
  run_once(true);
  RepeatSetup(seconds, [&] { run_once(false); });
  PrintPhase("forward", 1, s.fwd_epoch);
  PrintPhase("train_t1", 1, s.epoch_t1);
  PrintPhase("train_t4", kThreadsHigh, s.epoch_t4);
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

// Per-layer metrics in output order; every workload reports all of them.
// Dist/transport counters are 0 on single-machine workloads.
struct LayerMetric {
  std::string name;
  std::string unit;
};

std::vector<LayerMetric> PerLayerMetrics() {
  std::vector<LayerMetric> out = {
      {"data.generate_s", "s"},
      {"core.ensure_hdg_s", "s"},
      {"hdg.build_s", "s"},
      {"exec.plan_compile_s", "s"},
      {"hdg.instances", "count"},
      {"hdg.leaf_refs", "count"},
      {"core.aggregate_s", "s"},
      {"core.aggregate_s.l0", "s"},
      {"core.aggregate_s.l1", "s"},
      {"core.update_s", "s"},
      {"core.update_s.l0", "s"},
      {"core.update_s.l1", "s"},
      {"core.agg_fwd_s.bottom", "s"},
      {"core.agg_bwd_s.bottom", "s"},
      {"core.loss_s", "s"},
      {"tensor.backward_s", "s"},
      {"tensor.optimize_s", "s"},
      {"tensor.arena_high_water_mb", "MB"},
      {"exec.planned_mb", "MB"},
      {"exec.kernel_heap_allocs", "count"},
  };
  // Every reported time is nonzero on every workload: the plain and the
  // fused-prefix gather-reduce kernels share one wall-time metric because
  // each workload runs only one of the two (fusion finds shared prefixes in
  // GCN's and MAGNN's static HDGs, never in PinSage's sampled ones).
  for (const char* kernel : {"segment_reduce", "segment_reduce_ext"}) {
    out.push_back({std::string("prof.") + kernel + ".bytes", "bytes"});
    out.push_back({std::string("prof.") + kernel + ".flops", "count"});
  }
  out.push_back({"prof.gather_reduce.wall_s", "s"});
  for (const char* kernel : {"indirect_backward", "scatter_rows", "gemm", "gemm_trans_a",
                             "elementwise", "row_copy", "row_softmax"}) {
    const std::string prefix = std::string("prof.") + kernel + ".";
    out.push_back({prefix + "bytes", "bytes"});
    if (std::string(kernel) != "row_copy") {  // pure data movement: no FLOPs
      out.push_back({prefix + "flops", "count"});
    }
    out.push_back({prefix + "wall_s", "s"});
  }
  out.insert(out.end(), {
                            {"dist.fwd_comm_bytes", "bytes"},
                            {"transport.bytes_sent", "bytes"},
                            {"transport.frames_sent", "count"},
                            {"dist.allreduce_bytes", "bytes"},
                            {"trace.overhead_s", "s"},
                        });
  return out;
}

using MetricMap = std::map<std::string, double>;

int64_t CounterValue(const char* name) {
  return flexgraph::obs::MetricRegistry::Get().GetCounter(name).value();
}

// Traced run of the single-machine driver on `state` (fresh from setup), all
// at 1 thread: the first Fit epoch (warm-up), kProfiledEpochs epochs under
// the kernel profiler, rounds of untraced Fit and traced epochs, then the
// level probes. All epochs continue one trajectory, checked against the
// reference like the untraced run's.
void TraceSingleMachine(const WorkloadSpec& spec, uint64_t seed, double seconds,
                        e2e::TrainState& state, e2e::SpanRecorder& spans, MetricMap& m,
                        Tally& tally) {
  SetNumThreads(1);
  LossChecker losses(spec, seed, "fit", &tally);
  RunFit(state, NowSeconds(), [&](double, float loss, float) {
    losses.Next(loss);
    return false;
  });

  // Kernel profiler over a fixed epoch range, so its byte and FLOP counts
  // repeat exactly for a given seed. Its shims slow the kernels, so these
  // epochs record no spans.
  e2e::TracedTrainer profiled(state, nullptr);
  flexgraph::obs::KernelProfiler::Get().Reset();
  flexgraph::simd::SetKernelProfiling(true);
  for (int i = 0; i < kProfiledEpochs; ++i) {
    losses.Next(profiled.RunEpoch(-1).loss);
  }
  flexgraph::simd::SetKernelProfiling(false);
  const flexgraph::obs::ProfilerReport report = flexgraph::obs::KernelProfiler::Get().Aggregate();
  for (const flexgraph::obs::KernelProfileRow& row : report.rows) {
    const std::string prefix = std::string("prof.") + row.name + ".";
    m[prefix + "bytes"] = static_cast<double>(row.total_bytes()) / kProfiledEpochs;
    m[prefix + "flops"] = static_cast<double>(row.flops) / kProfiledEpochs;
    m[prefix + "wall_s"] = row.wall_seconds / kProfiledEpochs;
  }
  m["prof.gather_reduce.wall_s"] =
      m["prof.segment_reduce.wall_s"] + m["prof.segment_reduce_ext.wall_s"];

  // Rounds of an untraced Fit block (the overhead baseline) and a traced
  // block; each traced epoch is preceded by the HDG-build probe.
  e2e::TracedTrainer traced(state, &spans);
  int epoch_id = 0;
  std::vector<double> untraced;
  int traced_epochs = 0;
  int64_t allocs = 0;
  std::unique_ptr<e2e::BuiltHdg> built;
  const double rounds_start = NowSeconds();
  while (NowSeconds() - rounds_start < 0.8 * seconds || untraced.size() < kMinSamples ||
         traced_epochs < static_cast<int>(kMinSamples)) {
    const double block_start = NowSeconds();
    RunFit(state, block_start, [&](double epoch_s, float loss, float) {
      losses.Next(loss);
      untraced.push_back(epoch_s);
      return NowSeconds() - block_start < 0.4 * kRoundSeconds;
    });
    const double traced_start = NowSeconds();
    do {
      built = e2e::ProbeHdgBuild(state, &spans);
      const int64_t allocs_before = CounterValue("exec.alloc_count");
      losses.Next(traced.RunEpoch(epoch_id++).loss);
      allocs += CounterValue("exec.alloc_count") - allocs_before;
      ++traced_epochs;
    } while (NowSeconds() - traced_start < 0.6 * kRoundSeconds);
  }
  m["exec.kernel_heap_allocs"] = static_cast<double>(allocs) / traced_epochs;
  m["tensor.arena_high_water_mb"] =
      static_cast<double>(state.engine.workspace().high_water_bytes()) / (1024.0 * 1024.0);
  m["exec.planned_mb"] =
      static_cast<double>(state.engine.plan()->planned_bytes()) / (1024.0 * 1024.0);
  m["hdg.instances"] = static_cast<double>(built->hdg.num_instances());
  m["hdg.leaf_refs"] = static_cast<double>(built->hdg.num_leaf_refs());

  for (int i = 0; i < kLevelProbeReps; ++i) {
    e2e::ProbeAggregationLevels(state, *built, &spans);
  }

  // Per steady epoch: median over traced epochs of each span's self time.
  std::map<std::string, std::vector<double>> per_epoch;
  for (const auto& [epoch, by_name] : spans.SelfSecondsByEpoch()) {
    if (epoch < 0) {
      continue;
    }
    double aggregate = 0.0;
    double update = 0.0;
    for (const auto& [name, self] : by_name) {
      per_epoch[name].push_back(self);
      aggregate += name.rfind("core.aggregate.", 0) == 0 ? self : 0.0;
      update += name.rfind("core.update.", 0) == 0 ? self : 0.0;
    }
    per_epoch["core.aggregate"].push_back(aggregate);
    per_epoch["core.update"].push_back(update);
  }
  auto per_epoch_median = [&](const std::string& span) { return e2e::Median(per_epoch[span]); };
  m["core.ensure_hdg_s"] = per_epoch_median("core.ensure_hdg");
  m["core.aggregate_s"] = per_epoch_median("core.aggregate");
  m["core.update_s"] = per_epoch_median("core.update");
  for (std::size_t l = 0; l < state.model.layers.size(); ++l) {
    const std::string k = ".l" + std::to_string(l);
    m["core.aggregate_s" + k] = per_epoch_median("core.aggregate" + k);
    m["core.update_s" + k] = per_epoch_median("core.update" + k);
  }
  m["core.loss_s"] = per_epoch_median("core.loss");
  m["tensor.backward_s"] = per_epoch_median("tensor.backward");
  m["tensor.optimize_s"] = per_epoch_median("tensor.optimize");
  m["hdg.build_s"] = e2e::Median(spans.Durations("hdg.build"));
  m["exec.plan_compile_s"] = e2e::Median(spans.Durations("exec.plan_compile"));
  for (const char* level : {"bottom", "instance", "schema"}) {
    m[std::string("core.agg_fwd_s.") + level] =
        e2e::Median(spans.Durations(std::string("agg_fwd.") + level));
    m[std::string("core.agg_bwd_s.") + level] =
        e2e::Median(spans.Durations(std::string("agg_bwd.") + level));
  }

  std::vector<double> traced_epoch_seconds;
  for (const e2e::SpanRecord& span : spans.spans()) {
    if (span.name == "epoch" && span.epoch >= 0) {
      traced_epoch_seconds.push_back(span.seconds());
    }
  }
  m["trace.overhead_s"] = e2e::Median(traced_epoch_seconds) - e2e::Median(untraced);
  PrintPhase("untraced", 1, untraced);
  PrintPhase("traced", 1, traced_epoch_seconds);
  if (!built->hdg.flat()) {
    std::printf("levels (fwd/bwd s): bottom %.6f/%.6f instance %.6f/%.6f schema %.6f/%.6f\n",
                m["core.agg_fwd_s.bottom"], m["core.agg_bwd_s.bottom"],
                m["core.agg_fwd_s.instance"], m["core.agg_bwd_s.instance"],
                m["core.agg_fwd_s.schema"], m["core.agg_bwd_s.schema"]);
  }
}

// Socket workload, traced: fixed-count forward and training epochs on the
// cluster for the dist/transport counters, then the single-machine traced
// driver on the same model and data for the layers the driver process runs.
void TraceSocket(const WorkloadSpec& spec, uint64_t seed, double seconds,
                 e2e::SpanRecorder& spans, MetricMap& m, Tally& tally) {
  SetNumThreads(1);
  {
    e2e::ModelState state(spec, seed, spec.scale);
    m["data.generate_s"] = state.generate_seconds;
    const flexgraph::Partitioning parts =
        flexgraph::HashPartition(state.ds.graph.num_vertices(), spec.workers);
    {
      flexgraph::DistributedRuntime runtime(state.ds.graph, parts, ForwardConfig());
      flexgraph::Rng rng(seed);
      runtime.RunEpoch(state.model, state.ds.features, rng);  // warm-up
      std::vector<double> comm;
      std::vector<double> bytes;
      std::vector<double> frames;
      for (int i = 0; i < kDistTraceEpochs; ++i) {
        const int64_t bytes_before = CounterValue("transport.bytes_sent");
        const int64_t frames_before = CounterValue("transport.frames_sent");
        flexgraph::Tensor logits;
        flexgraph::DistEpochStats stats;
        {
          e2e::ScopedSpan span(&spans, "dist.run_epoch", -1);
          stats = runtime.RunEpoch(state.model, state.ds.features, rng, &logits);
        }
        tally.Check(AllFinite(logits), "RunEpoch logits not finite");
        comm.push_back(stats.comm_bytes_total);
        bytes.push_back(static_cast<double>(CounterValue("transport.bytes_sent") - bytes_before));
        frames.push_back(
            static_cast<double>(CounterValue("transport.frames_sent") - frames_before));
      }
      m["dist.fwd_comm_bytes"] = e2e::Median(comm);
      m["transport.bytes_sent"] = e2e::Median(bytes);
      m["transport.frames_sent"] = e2e::Median(frames);
    }
    flexgraph::DistributedTrainer trainer(state.ds.graph, parts, TrainConfig());
    flexgraph::Rng train_rng(seed + 2);
    LossChecker losses(spec, seed, "train", &tally);
    std::vector<double> allreduce;
    for (int i = 0; i <= kDistTraceEpochs; ++i) {
      flexgraph::DistTrainEpochResult result;
      {
        e2e::ScopedSpan span(&spans, "dist.train_epoch", -1);
        result = trainer.TrainEpoch(state.model, state.ds.features, state.ds.labels, train_rng);
      }
      losses.Next(result.loss);
      if (i > 0) {
        allreduce.push_back(static_cast<double>(result.allreduce_bytes));
      }
    }
    m["dist.allreduce_bytes"] = e2e::Median(allreduce);
  }
  e2e::TrainState state(spec, seed, spec.scale);
  TraceSingleMachine(spec, seed, seconds, state, spans, m, tally);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = e2e::kReferenceSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_dir = ".bench_build/e2e_bench/spans";
  bool dump_reference = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump-reference") {
      args.dump_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (arg == "--spans-dir") {
      args.spans_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (end == value || *end != '\0')) {
      return false;
    }
  }
  return args.dump_reference ||
         (e2e::FindWorkload(args.workload) != nullptr && args.seconds > 0.0 &&
          (args.trace == 0 || args.trace == 1));
}

void PrintFloats(const std::string& key, const std::vector<float>& values) {
  std::printf("{\"%s\", {", key.c_str());
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%af", i % 6 == 0 ? "\n  " : " ", static_cast<double>(values[i]));
    std::printf(i + 1 < values.size() ? "," : "");
  }
  std::printf("}},\n");
}

// Prints reference_losses.inc for kReferenceSeed. Lengths cover well past
// what a 60-second phase reaches on the reference box.
int DumpReference() {
  const uint64_t seed = e2e::kReferenceSeed;
  SetNumThreads(kThreadsHigh);  // trajectories are thread-count invariant
  std::printf("// Generated by `e2e_bench --dump-reference` (seed %llu); see README.md.\n",
              static_cast<unsigned long long>(seed));
  for (const WorkloadSpec& spec : e2e::AllWorkloads()) {
    const int fit_epochs = std::string(spec.model) == "magnn" ? 60 : 800;
    e2e::TrainState state(spec, seed, spec.scale);
    std::vector<float> fit;
    RunFit(state, NowSeconds(), [&](double, float loss, float) {
      fit.push_back(loss);
      return static_cast<int>(fit.size()) < fit_epochs;
    });
    PrintFloats(std::string(spec.name) + "/fit", fit);
    if (spec.workers == 0) {
      continue;
    }
    e2e::ModelState fresh(spec, seed, spec.scale);  // untrained parameters
    flexgraph::DistributedTrainer trainer(
        fresh.ds.graph, flexgraph::HashPartition(fresh.ds.graph.num_vertices(), spec.workers),
        TrainConfig());
    flexgraph::Rng train_rng(seed + 2);
    std::vector<float> train;
    for (int i = 0; i < 1000; ++i) {
      train.push_back(
          trainer.TrainEpoch(fresh.model, fresh.ds.features, fresh.ds.labels, train_rng).loss);
    }
    PrintFloats(std::string(spec.name) + "/train", train);
  }
  return 0;
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *e2e::FindWorkload(args.workload);
  std::printf("%s trace=%d seconds=%g\n", e2e::EnvironmentLine(spec.name, args.seed).c_str(),
              args.trace, args.seconds);
  Tally tally;
  e2e::ResultJson json;
  bool completed = false;
  try {
    if (args.trace == 0) {
      E2eSamples s;
      if (spec.workers > 0) {
        RunSocketE2e(spec, args.seed, args.seconds, s, tally);
      } else {
        RunSingleMachineE2e(spec, args.seed, args.seconds, s, tally);
      }
      // Where work spreads over the 4 vCPUs (4-thread epochs, and the socket
      // workload's forward phase and setup, whose workers run in parallel)
      // the samples are not bimodal but carry a contention tail that moves
      // their 90th percentile: there the median is the steadier statistic
      // (README.md, "Statistics").
      const double spread_q = spec.workers > 0 ? 0.5 : kTimeQuantile;
      json.Add("setup_s", e2e::Quantile(s.setup, spread_q), "s");
      json.Add("epoch_s_t1", e2e::Quantile(s.epoch_t1, kTimeQuantile), "s");
      json.Add("epoch_s_t4", e2e::Median(s.epoch_t4), "s");
      json.Add("fwd_epoch_s", e2e::Quantile(s.fwd_epoch, spread_q), "s");
      json.Add("peak_rss_mb", s.peak_rss_mb, "MB");
      PrintPhase("setup", 1, s.setup);
    } else {
      // Profiler bookkeeping only: no roofline probe, no perf_event reads.
      setenv("FLEXGRAPH_ROOFLINE_PROBE", "off", /*overwrite=*/1);
      setenv("FLEXGRAPH_PERF", "off", /*overwrite=*/1);
      e2e::SpanRecorder spans;
      MetricMap m;
      if (spec.workers > 0) {
        TraceSocket(spec, args.seed, args.seconds, spans, m, tally);
      } else {
        SetNumThreads(1);
        e2e::TrainState state(spec, args.seed, spec.scale);
        m["data.generate_s"] = state.generate_seconds;
        TraceSingleMachine(spec, args.seed, args.seconds, state, spans, m, tally);
      }
      for (const LayerMetric& metric : PerLayerMetrics()) {
        json.Add(metric.name, m.count(metric.name) > 0 ? m[metric.name] : 0.0, metric.unit);
      }
      std::filesystem::create_directories(args.spans_dir);
      const std::string path = args.spans_dir + "/" + spec.name + "-seed" +
                               std::to_string(args.seed) + ".jsonl";
      if (spans.WriteJsonLines(path)) {
        std::printf("spans written to %s (%zu spans)\n", path.c_str(), spans.spans().size());
      } else {
        std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
      }
    }
    completed = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    tally.Check(false, std::string("exception: ") + e.what());
  }
  for (const std::string& reason : tally.reasons) {
    std::printf("check failed: %s\n", reason.c_str());
  }
  const bool correct = completed && tally.failed == 0 && json.all_finite();
  std::printf("%s\n", json.Render(correct, tally.attempted, tally.failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload pinsage-reddit|magnn-twitter|gcn-reddit-socket3\n"
                 "                 --seed N --seconds S --trace 0|1 [--spans-dir DIR]\n"
                 "       e2e_bench --dump-reference\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return args.dump_reference ? DumpReference() : Run(args);
}
