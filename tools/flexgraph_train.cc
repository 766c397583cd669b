// flexgraph_train — command-line training driver.
//
// Usage:
//   flexgraph_train [--model gcn|pinsage|magnn|pgnn|jknet|gat|gin|graphsage-mean|
//                            graphsage-maxpool|graphsage-lstm]
//                   [--dataset reddit|fb91|twitter|imdb] [--scale 1.0]
//                   [--epochs 30] [--lr 0.1] [--strategy sa|safa|ha]
//                   [--threads n]
//                   [--workers 1] [--backend modeled|socket]
//                   [--checkpoint path] [--resume path|dir|auto]
//                   [--checkpoint-dir dir] [--checkpoint-every n]
//                   [--keep-checkpoints n]
//                   [--inject-crash E:W[:L]] [--inject-straggler E:W:F]
//                   [--inject-drop E:L:W[:N]] [--inject-corrupt-ckpt E]
//                   [--seed 7]
//                   [--metrics-json path] [--metrics-csv path] [--trace path]
//                   [--metrics-every n] [--verify-plan] [--profile]
//                   [--fuse on|off]
//
// With --workers > 1 training runs on the distributed runtime and reports
// per-epoch makespans; otherwise the single-machine engine trains with full
// backward passes and reports loss/accuracy on a 60/20/20 split.
//
// Distributed backends (README.md "Distributed backends"): --backend modeled
// (default) runs every worker in-process against the analytic NetworkModel;
// --backend socket forks one real worker process per --workers and moves the
// partial aggregations and gradients over Unix-domain sockets. Both backends
// print the same parity surface — a `logits crc32 0x…` line after the forward
// epochs and a `final loss …` line after training — which must match bitwise
// between the two (CI's multi-process smoke job diffs them), fault-free or
// not.
//
// Checkpointing: --checkpoint writes one file every epoch (hardened format:
// atomic rename + CRC32). --checkpoint-dir keeps a rotation of the newest
// --keep-checkpoints files, written every --checkpoint-every epochs. --resume
// accepts a file, a directory (the newest *valid* checkpoint inside it is
// selected, skipping corrupted files), or the literal "auto" (resume from
// --checkpoint-dir).
//
// Fault injection (README.md "Fault tolerance"): deterministic fault events
// for recovery experiments, served the same way by both backends.
// --inject-crash kills worker W just before layer L's fan-out in epoch E
// (and just before the gradient sync of training epoch E) — a real SIGKILL
// on the socket backend — and exercises crash recovery: detection, root
// migration, and a re-run of the forward epoch; --inject-straggler
// multiplies worker W's compute by factor F at epoch E; --inject-drop forces
// N failed delivery attempts of the layer-L transfer into worker W at epoch E
// (priced as timeout + backoff retries); --inject-corrupt-ckpt truncates the
// rotating checkpoint written at epoch E so resume exercises the valid-file
// fallback.
//
// Threading: --threads sets the kernel thread count (FLEXGRAPH_NUM_THREADS is
// the env fallback; hardware concurrency otherwise). Kernel results are
// bitwise identical across thread counts — the plan fixes chunk boundaries
// independently of the pool size.
//
// Observability (README.md "Observability"): --metrics-json/--metrics-csv
// export the metric registry at exit, --trace enables span recording and
// writes Chrome trace-event JSON (open in chrome://tracing or Perfetto), and
// --metrics-every N re-prints the stage-breakdown table every N epochs. A
// final stage-breakdown table is always printed.
//
// Profiling (README.md "Profiling"): --profile swaps the SIMD dispatch for
// the kernel profiler's shim table — every kernel invocation is attributed
// with analytic bytes/FLOPs and, where perf_event_open is available,
// hardware counters — and prints an end-of-run per-kernel table positioned
// against a measured roofline. Kernel results are unchanged; only wall time
// is affected (row primitives are accounted without timing).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/datasets.h"
#include "src/dist/checkpoint.h"
#include "src/dist/dist_trainer.h"
#include "src/dist/runtime.h"
#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/exec/verify.h"
#include "src/fault/fault_injector.h"
#include "src/models/gat.h"
#include "src/models/gcn.h"
#include "src/models/gin.h"
#include "src/models/graphsage.h"
#include "src/models/jknet.h"
#include "src/models/magnn.h"
#include "src/models/pgnn.h"
#include "src/models/pinsage.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/obs/trace.h"
#include "src/util/alloc_stats.h"
#include "src/util/crc32.h"
#include "src/util/table_printer.h"

namespace {

using namespace flexgraph;

struct CliOptions {
  std::string model = "gcn";
  std::string dataset = "reddit";
  double scale = 0.25;
  int epochs = 30;
  float lr = 0.1f;
  std::string strategy = "ha";
  int threads = 0;  // 0 = FLEXGRAPH_NUM_THREADS / hardware default
  uint32_t workers = 1;
  std::string backend = "modeled";
  std::string checkpoint;
  std::string resume;
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int keep_checkpoints = 3;
  std::vector<std::string> inject_crash;
  std::vector<std::string> inject_straggler;
  std::vector<std::string> inject_drop;
  std::vector<std::string> inject_corrupt_ckpt;
  uint64_t seed = 7;
  std::string metrics_json;
  std::string metrics_csv;
  std::string trace;
  int metrics_every = 0;
  bool verify_plan = false;
  bool profile = false;
};

// Prints the per-stage breakdown (Table 4 shape) from the metric registry:
// every stage histogram's total seconds and its share of the instrumented
// stage time. A distributed run (--workers > 1) relabels the arena rows:
// they come from the RunEpoch worker arenas — on the socket backend those
// live in the worker processes and are not measured here — while
// DistributedTrainer's TrainEpoch computes on the heap and is reported on
// its own row.
void PrintStageBreakdown(const CliOptions& opts) {
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  struct StageRow {
    const char* label;
    const char* metric;
  };
  static constexpr StageRow kRows[] = {
      {"NeighborSelection", "nau.neighbor_selection_seconds"},
      {"Plan compile", "exec.plan_compile_seconds"},
      {"Aggregation", "nau.aggregation_seconds"},
      {"Update", "nau.update_seconds"},
      {"Backward", "nau.backward_seconds"},
      {"Optimize", "nau.optimize_seconds"},
      {"Dist: aggregation", "dist.worker_agg_seconds"},
      {"Dist: update", "dist.worker_update_seconds"},
      {"Dist: comm", "dist.comm_seconds"},
      {"Dist: merge", "dist.merge_seconds"},
      {"Pipeline overlap", "pipeline.overlap_seconds"},
      {"Fault: recovery", "fault.recovery_seconds"},
      {"Fault: retry wait", "fault.retry_wait_seconds"},
      {"Fault: lost work", "fault.lost_work_seconds"},
      {"Fault: detection", "fault.detection_seconds"},
  };
  double total = 0.0;
  for (const StageRow& row : kRows) {
    auto it = snap.histograms.find(row.metric);
    if (it != snap.histograms.end()) {
      total += it->second.sum;
    }
  }
  TablePrinter table({"Stage", "seconds", "share", "count", "p95"});
  for (const StageRow& row : kRows) {
    auto it = snap.histograms.find(row.metric);
    if (it == snap.histograms.end() || it->second.count == 0) {
      continue;
    }
    const obs::Histogram::Stats& h = it->second;
    table.AddRow({row.label, TablePrinter::Num(h.sum, 4),
                  TablePrinter::Num(total > 0.0 ? 100.0 * h.sum / total : 0.0, 1) + "%",
                  std::to_string(h.count), TablePrinter::Num(h.p95, 6)});
  }
  std::printf("\n== stage breakdown (instrumented seconds, whole run) ==\n");
  table.Print(std::cout);

  // Planned-execution block: plan compilation cost, arena footprint, and the
  // steady-state heap-allocation count (flat from the second epoch onward
  // when the plan cache holds).
  auto counter = [&](const char* name) -> int64_t {
    auto it = snap.counters.find(name);
    return it != snap.counters.end() ? it->second : 0;
  };
  auto gauge = [&](const char* name) -> double {
    auto it = snap.gauges.find(name);
    return it != snap.gauges.end() ? it->second : 0.0;
  };
  double compile_seconds = 0.0;
  if (auto it = snap.histograms.find("exec.plan_compile_seconds");
      it != snap.histograms.end()) {
    compile_seconds = it->second.sum;
  }
  TablePrinter exec_table({"Execution", "value"});
  exec_table.AddRow({"kernel threads", std::to_string(exec::NumThreads())});
  exec_table.AddRow({"kernel ISA",
                     std::string(simd::IsaName(simd::ActiveIsa())) + " (cpu max " +
                         simd::IsaName(simd::DetectIsa()) + ")"});
  exec_table.AddRow({"plan compiles", std::to_string(counter("exec.plan_compiles"))});
  const int64_t cache_hits = counter("exec.plan_cache_hits");
  const int64_t cache_misses = counter("exec.plan_cache_misses");
  if (cache_hits + cache_misses > 0) {
    exec_table.AddRow({"plan cache hits",
                       std::to_string(cache_hits) + " / " +
                           std::to_string(cache_hits + cache_misses) + " (" +
                           TablePrinter::Num(100.0 * static_cast<double>(cache_hits) /
                                                 static_cast<double>(cache_hits + cache_misses),
                                             1) +
                           "%)"});
  }
  exec_table.AddRow({"plan compile seconds", TablePrinter::Num(compile_seconds, 4)});
  for (const char* pass : {"analyze", "lower", "fuse", "finalize"}) {
    auto it = snap.histograms.find(std::string("exec.plan_") + pass + "_seconds");
    exec_table.AddRow({std::string("  ") + pass,
                       TablePrinter::Num(it != snap.histograms.end() ? it->second.sum : 0.0, 4)});
  }
  exec_table.AddRow(
      {"arena planned KiB", TablePrinter::Num(gauge("exec.planned_bytes") / 1024.0, 1)});
  exec_table.AddRow({"arena reserved KiB",
                     TablePrinter::Num(gauge("exec.arena_reserved_bytes") / 1024.0, 1)});
  const bool distributed = opts.workers > 1;
  const bool measured = !distributed || opts.backend != "socket";
  const std::string arena_owner = distributed ? "RunEpoch worker " : "";
  const std::string not_measured = "not measured (worker processes)";
  exec_table.AddRow({arena_owner + "arena high-water KiB",
                     measured ? TablePrinter::Num(gauge("exec.arena_high_water_bytes") / 1024.0, 1)
                              : not_measured});
  exec_table.AddRow({"arena growths", std::to_string(counter("exec.arena_grow"))});
  exec_table.AddRow({arena_owner + "kernel heap allocs",
                     measured ? std::to_string(counter("exec.alloc_count")) : not_measured});
  if (distributed) {
    exec_table.AddRow({"TrainEpoch heap allocs (no arena)",
                       std::to_string(counter("dist.trainer_heap_allocs"))});
  }
  std::printf("\n== planned execution (exec.*) ==\n");
  exec_table.Print(std::cout);
}

// Prints the --profile per-kernel table: calls, wall time, achieved GB/s and
// GFLOP/s, arithmetic intensity, hardware cycles, position against the
// measured roofline, and each kernel's share of the instrumented kernel-stage
// time. Row primitives (per-edge add/axpy/...) carry work accounting but no
// clock — their rate columns print "-".
void PrintKernelProfile() {
  const obs::ProfilerReport report = obs::KernelProfiler::Get().Aggregate();
  const obs::MetricsSnapshot snap = obs::MetricRegistry::Get().Snapshot();
  // Denominator for the share column: CPU seconds of the stages whose inner
  // loops are the profiled kernels. CPU, not wall: kernel scopes run per
  // chunk on the pool workers and sum busy time across threads, so comparing
  // them against wall-clock stage time would read >100% on any parallel run.
  // The modeled dist.worker_* times are simulation outputs, not measurements,
  // and stay out of the denominator.
  double stage_seconds = 0.0;
  for (const char* name :
       {"nau.aggregation_cpu_seconds", "nau.update_cpu_seconds",
        "nau.loss_cpu_seconds", "nau.backward_cpu_seconds",
        "nau.optimize_cpu_seconds"}) {
    auto it = snap.histograms.find(name);
    if (it != snap.histograms.end()) {
      stage_seconds += it->second.sum;
    }
  }

  TablePrinter table({"Kernel", "calls", "wall s", "GB/s", "GFLOP/s", "FLOP/B", "Mcycles",
                      "LLCmiss/KB", "roof%", "% stages"});
  for (const obs::KernelProfileRow& row : report.rows) {
    if (row.calls == 0) {
      continue;
    }
    const bool timed = row.timed_calls > 0;
    const bool have_roof = timed && report.roofline.mem_bw_gbps > 0.0;
    table.AddRow(
        {row.name, std::to_string(row.calls),
         timed ? TablePrinter::Num(row.wall_seconds, 4) : "-",
         timed ? TablePrinter::Num(row.achieved_gbps(), 2) : "-",
         timed ? TablePrinter::Num(row.achieved_gflops(), 2) : "-",
         TablePrinter::Num(row.intensity(), 3),
         row.perf_samples > 0
             ? TablePrinter::Num(static_cast<double>(row.cycles) / 1e6, 1)
             : "-",
         row.perf_samples > 0
             ? TablePrinter::Num(1024.0 * row.llc_miss_per_byte(), 3)
             : "-",
         have_roof ? TablePrinter::Num(100.0 * row.roofline_fraction(report.roofline), 1) + "%"
                   : "-",
         timed && stage_seconds > 0.0
             ? TablePrinter::Num(100.0 * row.wall_seconds / stage_seconds, 1) + "%"
             : "-"});
  }
  std::printf("\n== kernel profile (--profile) ==\n");
  table.Print(std::cout);
  if (report.roofline.mem_bw_gbps > 0.0) {
    std::printf("roofline: %.2f GB/s memory (STREAM triad), %.2f GFLOP/s compute "
                "(L1 multiply-add)\n",
                report.roofline.mem_bw_gbps, report.roofline.compute_gflops);
  }
  if (report.perf_available) {
    std::printf("hardware counters: perf_event_open\n");
  } else {
    std::printf("hardware counters: unavailable (%s) — software fallback\n",
                report.perf_disabled_reason != nullptr ? report.perf_disabled_reason
                                                       : "unknown");
  }
  if (stage_seconds > 0.0) {
    std::printf("attributed %.4fs of %.4fs kernel-stage CPU time (%.1f%%)\n",
                report.timed_wall_seconds, stage_seconds,
                100.0 * report.timed_wall_seconds / stage_seconds);
  }
}

bool ParseArgs(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* value = nullptr;
    if (arg == "--model" && (value = next())) {
      opts.model = value;
    } else if (arg == "--dataset" && (value = next())) {
      opts.dataset = value;
    } else if (arg == "--scale" && (value = next())) {
      opts.scale = std::atof(value);
    } else if (arg == "--epochs" && (value = next())) {
      opts.epochs = std::atoi(value);
    } else if (arg == "--lr" && (value = next())) {
      opts.lr = static_cast<float>(std::atof(value));
    } else if (arg == "--strategy" && (value = next())) {
      opts.strategy = value;
    } else if (arg == "--threads" && (value = next())) {
      opts.threads = std::atoi(value);
    } else if (arg == "--workers" && (value = next())) {
      opts.workers = static_cast<uint32_t>(std::atoi(value));
    } else if (arg == "--backend" && (value = next())) {
      opts.backend = value;
      DistBackend parsed = DistBackend::kModeled;
      if (!ParseDistBackend(opts.backend, &parsed)) {
        std::fprintf(stderr, "error: unknown backend '%s' (want modeled|socket)\n",
                     value);
        return false;
      }
    } else if (arg == "--checkpoint" && (value = next())) {
      opts.checkpoint = value;
    } else if (arg == "--resume" && (value = next())) {
      opts.resume = value;
    } else if (arg == "--checkpoint-dir" && (value = next())) {
      opts.checkpoint_dir = value;
    } else if (arg == "--checkpoint-every" && (value = next())) {
      opts.checkpoint_every = std::atoi(value);
    } else if (arg == "--keep-checkpoints" && (value = next())) {
      opts.keep_checkpoints = std::atoi(value);
    } else if (arg == "--inject-crash" && (value = next())) {
      opts.inject_crash.push_back(value);
    } else if (arg == "--inject-straggler" && (value = next())) {
      opts.inject_straggler.push_back(value);
    } else if (arg == "--inject-drop" && (value = next())) {
      opts.inject_drop.push_back(value);
    } else if (arg == "--inject-corrupt-ckpt" && (value = next())) {
      opts.inject_corrupt_ckpt.push_back(value);
    } else if (arg == "--seed" && (value = next())) {
      opts.seed = static_cast<uint64_t>(std::atoll(value));
    } else if (arg == "--metrics-json" && (value = next())) {
      opts.metrics_json = value;
    } else if (arg == "--metrics-csv" && (value = next())) {
      opts.metrics_csv = value;
    } else if (arg == "--trace" && (value = next())) {
      opts.trace = value;
    } else if (arg == "--metrics-every" && (value = next())) {
      opts.metrics_every = std::atoi(value);
    } else if (arg == "--fuse" && (value = next())) {
      // Plan-compiler knob, not engine state: the compiler reads
      // FLEXGRAPH_FUSE wherever plans are built (including distributed
      // workers forked from this process), so the flag routes through the
      // environment.
      if (std::string(value) != "on" && std::string(value) != "off") {
        std::fprintf(stderr, "--fuse expects on|off\n");
        return false;
      }
      setenv("FLEXGRAPH_FUSE", value, /*overwrite=*/1);
    } else if (arg == "--verify-plan") {
      opts.verify_plan = true;
      continue;
    } else if (arg == "--profile") {
      opts.profile = true;
      continue;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
    if (value == nullptr && arg != "--help" && arg != "-h") {
      return false;
    }
  }
  return true;
}

GnnModel BuildModel(const CliOptions& opts, const Dataset& ds, Rng& rng) {
  if (opts.model == "gcn") {
    GcnConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGcnModel(c, rng);
  }
  if (opts.model == "pinsage") {
    PinSageConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakePinSageModel(c, rng);
  }
  if (opts.model == "magnn") {
    MagnnConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeMagnnModel(c, rng);
  }
  if (opts.model == "pgnn") {
    PgnnConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakePgnnModel(ds.graph.num_vertices(), c, rng);
  }
  if (opts.model == "jknet") {
    JkNetConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeJkNetModel(c, rng);
  }
  if (opts.model == "gat") {
    GatConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGatModel(c, rng);
  }
  if (opts.model == "gin") {
    GinConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    return MakeGinModel(c, rng);
  }
  if (opts.model.rfind("graphsage-", 0) == 0) {
    GraphSageConfig c;
    c.in_dim = ds.feature_dim();
    c.num_classes = ds.num_classes;
    const std::string kind = opts.model.substr(std::strlen("graphsage-"));
    if (kind == "mean") {
      c.aggregator = SageAggregator::kMean;
    } else if (kind == "maxpool") {
      c.aggregator = SageAggregator::kMaxPool;
    } else if (kind == "lstm") {
      c.aggregator = SageAggregator::kLstm;
    } else {
      FLEX_CHECK_MSG(false, "unknown graphsage aggregator: " + kind);
    }
    return MakeGraphSageModel(c, rng);
  }
  FLEX_CHECK_MSG(false, "unknown model: " + opts.model);
  return {};
}

// Splits a colon-separated fault spec ("3:1:0") into numeric fields.
std::vector<double> ParseSpec(const std::string& spec, std::size_t min_fields,
                              std::size_t max_fields, const char* flag) {
  std::vector<double> fields;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t colon = spec.find(':', pos);
    const std::string field =
        spec.substr(pos, colon == std::string::npos ? std::string::npos : colon - pos);
    char* end = nullptr;
    fields.push_back(std::strtod(field.c_str(), &end));
    FLEX_CHECK_MSG(end != field.c_str() && *end == '\0',
                   std::string("bad field in ") + flag + " spec: " + spec);
    if (colon == std::string::npos) {
      break;
    }
    pos = colon + 1;
  }
  FLEX_CHECK_MSG(fields.size() >= min_fields && fields.size() <= max_fields,
                 std::string("wrong field count in ") + flag + " spec: " + spec);
  return fields;
}

// Builds the deterministic fault schedule from the --inject-* flags; returns
// false when no fault flags were given (leave DistConfig::fault null).
bool BuildFaultSchedule(const CliOptions& opts, FaultInjector& injector) {
  for (const std::string& spec : opts.inject_crash) {
    const auto f = ParseSpec(spec, 2, 3, "--inject-crash");  // E:W[:L]
    injector.ScheduleCrash(static_cast<int64_t>(f[0]), static_cast<uint32_t>(f[1]),
                           f.size() > 2 ? static_cast<int>(f[2]) : 0);
  }
  for (const std::string& spec : opts.inject_straggler) {
    const auto f = ParseSpec(spec, 3, 3, "--inject-straggler");  // E:W:F
    injector.ScheduleStraggler(static_cast<int64_t>(f[0]), static_cast<uint32_t>(f[1]),
                               f[2]);
  }
  for (const std::string& spec : opts.inject_drop) {
    const auto f = ParseSpec(spec, 3, 4, "--inject-drop");  // E:L:W[:N]
    injector.ScheduleMessageDrop(static_cast<int64_t>(f[0]), static_cast<int>(f[1]),
                                 static_cast<uint32_t>(f[2]),
                                 f.size() > 3 ? static_cast<int>(f[3]) : 1);
  }
  for (const std::string& spec : opts.inject_corrupt_ckpt) {
    const auto f = ParseSpec(spec, 1, 1, "--inject-corrupt-ckpt");  // E
    injector.ScheduleCheckpointTruncation(static_cast<int64_t>(f[0]));
  }
  return !opts.inject_crash.empty() || !opts.inject_straggler.empty() ||
         !opts.inject_drop.empty() || !opts.inject_corrupt_ckpt.empty();
}

// Resolves --resume into a concrete checkpoint file: a file path is used as
// given; a directory (or the literal "auto", meaning --checkpoint-dir) picks
// the newest checkpoint that passes CRC validation, skipping corrupted files.
// Returns "" when nothing valid is found.
std::string ResolveResumePath(const CliOptions& opts) {
  std::string target = opts.resume;
  if (target == "auto") {
    FLEX_CHECK_MSG(!opts.checkpoint_dir.empty(),
                   "--resume auto requires --checkpoint-dir");
    target = opts.checkpoint_dir;
  }
  if (std::filesystem::is_directory(target)) {
    const std::string found = FindLatestValidCheckpoint(target);
    if (found.empty()) {
      std::fprintf(stderr, "warning: no valid checkpoint in %s, starting fresh\n",
                   target.c_str());
    }
    return found;
  }
  return target;
}

ExecStrategy ParseStrategy(const std::string& name) {
  if (name == "sa") {
    return ExecStrategy::kSparse;
  }
  if (name == "safa") {
    return ExecStrategy::kSparseFused;
  }
  FLEX_CHECK_MSG(name == "ha", "unknown strategy: " + name);
  return ExecStrategy::kHybrid;
}

// Prints every structural-verifier diagnostic; returns false on violations.
bool ReportVerification(const std::string& what, const VerifyResult& result) {
  if (result.ok()) {
    std::printf("verify-plan: %s OK\n", what.c_str());
    return true;
  }
  std::fprintf(stderr, "verify-plan: %s FAILED\n%s", what.c_str(),
               result.Summary().c_str());
  return false;
}

int RunSingleMachine(const CliOptions& opts, const Dataset& ds, GnnModel& model) {
  Engine engine(ds.graph, ParseStrategy(opts.strategy));
  Rng rng(opts.seed);
  DataSplit split = RandomSplit(ds.graph.num_vertices(), 0.6, 0.2, rng);

  if (opts.verify_plan) {
    // Build the epoch-0 HDG + plan up front (Fit reuses the cached pair, so
    // this consumes exactly the random stream a normal run would) and check
    // every structural invariant before training touches them.
    StageTimes times;
    const Hdg& hdg = engine.EnsureHdg(model, rng, &times);
    const bool hdg_ok =
        ReportVerification("HDG (" + model.name + ")",
                           VerifyHdg(hdg, ds.graph.num_vertices()));
    const bool plan_ok =
        ReportVerification("execution plan (" + model.name + ")",
                           VerifyPlan(*engine.plan(), hdg, ds.graph.num_vertices()));
    if (!hdg_ok || !plan_ok) {
      return 1;
    }
  }

  int64_t start_epoch = 0;
  if (!opts.resume.empty()) {
    const std::string resume_path = ResolveResumePath(opts);
    if (!resume_path.empty()) {
      const CheckpointInfo info = LoadCheckpoint(resume_path, model);
      start_epoch = info.epoch + 1;
      std::printf("resumed %s from %s at epoch %lld\n", info.model_name.c_str(),
                  resume_path.c_str(), static_cast<long long>(start_epoch));
    }
  }

  FaultInjector injector(opts.seed);
  const bool have_faults = BuildFaultSchedule(opts, injector);

  TrainerOptions train_opts;
  train_opts.max_epochs = opts.epochs;
  train_opts.learning_rate = opts.lr;
  train_opts.on_epoch = [&](int epoch, float loss, float val_acc) {
    if (epoch % 5 == 0 || epoch == opts.epochs - 1) {
      std::printf("epoch %3d  loss %.4f  val_acc %.4f\n", epoch, loss, val_acc);
    }
    if (opts.metrics_every > 0 && (epoch + 1) % opts.metrics_every == 0) {
      PrintStageBreakdown(opts);
    }
    if (!opts.checkpoint.empty()) {
      SaveCheckpoint(opts.checkpoint, model, start_epoch + epoch);
    }
    if (!opts.checkpoint_dir.empty() && opts.checkpoint_every > 0 &&
        (epoch + 1) % opts.checkpoint_every == 0) {
      const int64_t ckpt_epoch = start_epoch + epoch;
      const std::string path = SaveRotatingCheckpoint(opts.checkpoint_dir, model,
                                                      ckpt_epoch, opts.keep_checkpoints);
      if (have_faults && injector.CheckpointTruncationAt(ckpt_epoch)) {
        FaultInjector::TruncateFileTail(path);
        std::printf("injected corruption: truncated %s\n", path.c_str());
      }
    }
    return true;
  };
  Trainer trainer(engine, train_opts);
  TrainerResult result = trainer.Fit(model, ds.features, ds.labels, split, rng);
  std::printf("best val_acc %.4f @ epoch %d; test_acc %.4f\n", result.best_val_accuracy,
              result.best_epoch, result.test_accuracy);
  if (opts.verify_plan && engine.plan() != nullptr &&
      !ReportVerification("workspace estimate",
                          VerifyWorkspace(*engine.plan(),
                                          engine.workspace().high_water_bytes()))) {
    return 1;
  }
  return 0;
}

int RunDistributed(const CliOptions& opts, const Dataset& ds, GnnModel& model) {
  DistBackend backend = DistBackend::kModeled;
  FLEX_CHECK_MSG(ParseDistBackend(opts.backend, &backend),
                 "unknown backend: " + opts.backend + " (want modeled|socket)");

  // Phase 1 — forward epochs on the distributed runtime, scoped so a socket
  // backend's worker processes are reaped before the trainer forks its own.
  // The last epoch's logits are CRC'd below: with the same seed the line is
  // bitwise identical across backends (the CI smoke job diffs it).
  // One injector serves both phases, so each scheduled event counts once
  // in the process's `fault.*` counters although both phases fire it.
  FaultInjector injector(opts.seed);
  const bool have_faults = BuildFaultSchedule(opts, injector);
  Tensor logits;
  {
    DistConfig config;
    config.strategy = ParseStrategy(opts.strategy);
    config.backward_compute_factor = 1.0;
    config.backend = backend;
    if (have_faults) {
      config.fault = &injector;
    }
    DistributedRuntime runtime(ds.graph,
                               HashPartition(ds.graph.num_vertices(), opts.workers),
                               config);
    Rng rng(opts.seed);
    if (opts.verify_plan && backend != DistBackend::kModeled) {
      // Preparing the in-process worker states would consume the random
      // stream the socket cluster's own Prepare is about to consume, skewing
      // the cross-backend parity this mode exists to demonstrate.
      std::fprintf(stderr, "warning: --verify-plan requires --backend modeled; skipped\n");
    } else if (opts.verify_plan) {
      // Prepare each worker's HDG/plan now (RunEpoch then reuses them) and
      // verify every worker's structures before the first epoch.
      runtime.Prepare(model, rng);
      bool all_ok = true;
      for (const WorkerState& worker : runtime.workers()) {
        const std::string label = "worker " + std::to_string(worker.id);
        all_ok &= ReportVerification(label + " HDG",
                                     VerifyHdg(worker.hdg, ds.graph.num_vertices()));
        all_ok &= ReportVerification(
            label + " execution plan",
            VerifyPlan(*worker.exec_plan, worker.hdg, ds.graph.num_vertices()));
      }
      if (!all_ok) {
        return 1;
      }
    }
    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
      const bool last = epoch == opts.epochs - 1;
      DistEpochStats stats = runtime.RunEpoch(model, ds.features, rng,
                                              last ? &logits : nullptr);
      if (epoch % 5 == 0 || last || stats.crashes_recovered > 0) {
        std::printf("epoch %3d  makespan %.4fs (nbrsel %.4f, agg %.4f, update %.4f, "
                    "backward %.4f)  comm %.1f KiB\n",
                    epoch, stats.makespan_seconds, stats.neighbor_selection_seconds,
                    stats.aggregation_seconds, stats.update_seconds,
                    stats.backward_seconds, stats.comm_bytes_total / 1024.0);
      }
      if (stats.crashes_recovered > 0) {
        std::printf("epoch %3d  recovered %lld crash(es): recovery %.4fs "
                    "(lost work %.4f, detection %.4f), %lld roots migrated\n",
                    epoch, static_cast<long long>(stats.crashes_recovered),
                    stats.recovery_seconds, stats.lost_work_seconds,
                    stats.detection_seconds, static_cast<long long>(stats.roots_migrated));
      }
      if (stats.transfer_retries > 0) {
        std::printf("epoch %3d  %lld transfer retries, %.4fs retry wait\n", epoch,
                    static_cast<long long>(stats.transfer_retries),
                    stats.retry_wait_seconds);
      }
      if (opts.metrics_every > 0 && (epoch + 1) % opts.metrics_every == 0) {
        PrintStageBreakdown(opts);
      }
    }
    if (config.fault != nullptr) {
      std::printf("fault schedule: %zu event(s) scheduled, %zu fired\n",
                  injector.schedule().size(), injector.fired().size());
    }
  }
  if (!logits.empty()) {
    std::printf("logits crc32 0x%08x\n", Crc32(logits.data(), logits.ByteSize()));
  }

  // Phase 2 — data-parallel training, on the same schedule re-armed: the
  // runtime loop consumed the one-shot events above. The backend changes
  // how gradients move (modeled allreduce vs. real broadcast to replica
  // processes), never the math — `final loss` must match bitwise across
  // backends.
  injector.Rearm();
  DistTrainConfig train_config;
  train_config.learning_rate = opts.lr;
  train_config.backend = backend;
  if (have_faults) {
    train_config.fault = &injector;
  }
  DistributedTrainer trainer(ds.graph,
                             HashPartition(ds.graph.num_vertices(), opts.workers),
                             train_config);
  Rng train_rng(opts.seed + 2);
  float final_loss = 0.0f;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    // TrainEpoch runs its forward and backward outside any workspace arena,
    // so its tensor heap allocations are counted here, apart from the
    // worker arenas' exec.alloc_count.
    const uint64_t allocs_before = allocstats::ThreadHeapAllocs();
    const DistTrainEpochResult result =
        trainer.TrainEpoch(model, ds.features, ds.labels, train_rng);
    FLEX_COUNTER_ADD("dist.trainer_heap_allocs",
                     static_cast<int64_t>(allocstats::ThreadHeapAllocs() - allocs_before));
    final_loss = result.loss;
    if (epoch % 5 == 0 || epoch == opts.epochs - 1 || result.crashes_recovered > 0) {
      std::printf("train epoch %3d  loss %.6f  compute %.4fs  allreduce %.4fs\n", epoch,
                  result.loss, result.compute_seconds, result.allreduce_seconds);
    }
    if (result.crashes_recovered > 0) {
      std::printf("train epoch %3d  recovered %lld crash(es), recovery %.4fs\n", epoch,
                  static_cast<long long>(result.crashes_recovered),
                  result.recovery_seconds);
    }
  }
  std::printf("final loss %.9g\n", static_cast<double>(final_loss));
  return 0;
}

// Writes the requested exports (registry JSON/CSV, Chrome trace) and prints
// the final stage table. Called once, after the selected run mode returns.
// Returns false if any requested export file could not be written.
bool FinishObservability(const CliOptions& opts) {
  PrintStageBreakdown(opts);
  bool ok = true;
  if (!opts.metrics_json.empty()) {
    if (obs::MetricRegistry::Get().WriteJsonFile(opts.metrics_json)) {
      std::printf("metrics json written to %s\n", opts.metrics_json.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write metrics json to %s\n",
                   opts.metrics_json.c_str());
      ok = false;
    }
  }
  if (!opts.metrics_csv.empty()) {
    if (obs::MetricRegistry::Get().WriteCsvFile(opts.metrics_csv)) {
      std::printf("metrics csv written to %s\n", opts.metrics_csv.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write metrics csv to %s\n",
                   opts.metrics_csv.c_str());
      ok = false;
    }
  }
  if (!opts.trace.empty()) {
    if (obs::Tracer::Get().WriteChromeTraceFile(opts.trace)) {
      std::printf("chrome trace written to %s (open in chrome://tracing)\n",
                  opts.trace.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write chrome trace to %s\n",
                   opts.trace.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: flexgraph_train [--model M] [--dataset D] [--scale S] [--epochs N]\n"
                 "                       [--lr F] [--strategy sa|safa|ha] [--threads N]\n"
                 "                       [--workers K] [--backend modeled|socket]\n"
                 "                       [--checkpoint PATH] [--resume PATH|DIR|auto]\n"
                 "                       [--checkpoint-dir DIR] [--checkpoint-every N]\n"
                 "                       [--keep-checkpoints N] [--seed N]\n"
                 "                       [--inject-crash E:W[:L]] [--inject-straggler E:W:F]\n"
                 "                       [--inject-drop E:L:W[:N]] [--inject-corrupt-ckpt E]\n"
                 "                       [--metrics-json PATH] [--metrics-csv PATH]\n"
                 "                       [--trace PATH] [--metrics-every N]\n"
                 "                       [--verify-plan] [--profile] [--fuse on|off]\n");
    return 1;
  }
  if (!opts.trace.empty()) {
    flexgraph::obs::Tracer::Get().Enable(true);
  }
  if (opts.profile) {
    // Before the run so the roofline probe's traffic never overlaps training.
    flexgraph::simd::SetKernelProfiling(true);
  }
  if (opts.threads > 0) {
    flexgraph::exec::SetNumThreads(opts.threads);
  }
  Dataset ds = MakeDatasetByName(opts.dataset, opts.scale, opts.seed);
  if ((opts.model == "magnn") && !ds.graph.is_heterogeneous()) {
    ds = WithSyntheticVertexTypes(ds, 3);
  }
  std::printf("model=%s dataset=%s |V|=%u |E|=%llu dim=%lld classes=%d workers=%u\n",
              opts.model.c_str(), ds.name.c_str(), ds.graph.num_vertices(),
              static_cast<unsigned long long>(ds.graph.num_edges()),
              static_cast<long long>(ds.feature_dim()), ds.num_classes, opts.workers);
  flexgraph::Rng model_rng(opts.seed + 1);
  flexgraph::GnnModel model = BuildModel(opts, ds, model_rng);
  int rc = opts.workers > 1 ? RunDistributed(opts, ds, model)
                            : RunSingleMachine(opts, ds, model);
  if (opts.profile) {
    // Export before FinishObservability so prof.* rows land in the metrics
    // JSON/CSV and the counter tracks in the Chrome trace.
    obs::KernelProfiler::Get().ExportMetrics();
    obs::KernelProfiler::Get().ExportTraceCounters();
    PrintKernelProfile();
  }
  if (!FinishObservability(opts) && rc == 0) {
    rc = 1;
  }
  return rc;
}
