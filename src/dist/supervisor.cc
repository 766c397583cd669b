#include "src/dist/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <optional>

#include "src/dist/supervisor_worker.h"
#include "src/dist/worker_exec.h"
#include "src/fault/recovery.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/crc32.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace flexgraph {

namespace {

void SleepSeconds(double seconds) {
  if (seconds <= 0) {
    return;
  }
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

SocketCluster::SocketCluster(const CsrGraph& graph, Partitioning* parts, Config config)
    : graph_(graph), parts_(parts), config_(config), transport_(config.network) {
  FLEX_CHECK(parts_ != nullptr);
  FLEX_CHECK_EQ(parts_->owner.size(), static_cast<std::size_t>(graph_.num_vertices()));
  FLEX_CHECK_GE(parts_->num_parts, 1u);
}

SocketCluster::~SocketCluster() { Shutdown(); }

uint32_t SocketCluster::num_alive() const {
  uint32_t n = 0;
  for (const Proc& proc : procs_) {
    if (proc.alive) {
      ++n;
    }
  }
  return n;
}

void SocketCluster::Start(const GnnModel& model, const Tensor& features) {
  FLEX_CHECK_MSG(!started_, "SocketCluster::Start called twice");
  transport_.Listen();
  const uint32_t k = parts_->num_parts;
  procs_.assign(k, Proc{});
  for (uint32_t w = 0; w < k; ++w) {
    WorkerProcessConfig worker_config;
    worker_config.worker_id = w;
    worker_config.endpoint = transport_.endpoint();
    worker_config.graph = &graph_;
    worker_config.model = &model;
    worker_config.features = &features;
    worker_config.strategy = config_.strategy;
    worker_config.retry = config_.retry;
    // Flush our stdio before the address space is duplicated, or the child
    // would re-emit whatever sat in the parent's buffers.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    FLEX_CHECK_MSG(pid >= 0, "fork failed: " + std::string(std::strerror(errno)));
    if (pid == 0) {
      WorkerMain(worker_config);  // [[noreturn]]
    }
    procs_[w].pid = pid;
    procs_[w].alive = true;
  }
  // Workers come up in any order; 30s covers even a sanitizer-slowed start,
  // and a fork that never dials in fails loudly here rather than hanging.
  for (uint32_t i = 0; i < k; ++i) {
    (void)transport_.AcceptWorker(/*timeout_seconds=*/30.0);
  }
  started_ = true;
  FLEX_LOG(Info) << "socket cluster up: " << k << " worker processes on "
                 << transport_.endpoint();
  BroadcastPartition();
}

void SocketCluster::RebuildRoots() {
  roots_by_worker_.assign(parts_->num_parts, {});
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    roots_by_worker_[parts_->owner[v]].push_back(v);
  }
}

void SocketCluster::BroadcastPartition() {
  ++generation_;
  RebuildRoots();
  PayloadWriter w;
  w.PutU64(generation_);
  w.PutU32(parts_->num_parts);
  w.PutU64(parts_->owner.size());
  w.PutBytes(parts_->owner.data(), parts_->owner.size() * sizeof(uint32_t));
  const std::string payload = w.Take();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  for (uint32_t worker = 0; worker < procs_.size(); ++worker) {
    if (procs_[worker].alive) {
      (void)transport_.SendTo(worker, FrameType::kPartition, payload, crc);
    }
  }
  need_prepare_ = true;
}

void SocketCluster::ReapWorker(uint32_t worker) {
  Proc& proc = procs_[worker];
  if (proc.pid > 0) {
    // Fencing: even if the worker is merely wedged rather than dead, after
    // this it is *definitely* dead — a fenced worker can never reconnect and
    // double-apply work after its roots have migrated.
    ::kill(proc.pid, SIGKILL);
    ::waitpid(proc.pid, nullptr, 0);
    proc.pid = -1;
  }
  proc.alive = false;
  transport_.CloseWorker(worker);
}

int64_t SocketCluster::RecoverFrom(uint32_t dead) {
  ReapWorker(dead);
  FLEX_COUNTER_ADD("dist.worker_deaths", 1);
  MigrationResult migration = MigrateRoots(*parts_, dead);
  FLEX_LOG(Info) << "recovery: migrated " << migration.migrated.size()
                 << " roots off worker " << dead << " onto "
                 << num_alive() << " survivors";
  BroadcastPartition();
  return static_cast<int64_t>(migration.migrated.size());
}

uint32_t SocketCluster::FindDeadWorker(const std::vector<char>& pending) const {
  const double detection = config_.retry.DetectionSeconds();
  for (uint32_t w = 0; w < pending.size(); ++w) {
    if (pending[w] != 0 && transport_.SecondsSinceContact(w) > detection) {
      return w;
    }
  }
  return kNoWorker;
}

bool SocketCluster::PrepareAll(Rng& rng, double* build_makespan, uint32_t* dead) {
  // Token ring: the RNG state threads through the workers in id order, so the
  // cluster as a whole consumes the caller's stream exactly as the modeled
  // Prepare's sequential loop does. Root-less (and dead) workers are skipped
  // and consume nothing — both backends rely on that for stream parity.
  const double slice = std::min(config_.retry.DetectionSeconds() * 0.25, 0.02);
  double makespan = 0.0;
  for (uint32_t w = 0; w < procs_.size(); ++w) {
    if (!procs_[w].alive || roots_by_worker_[w].empty()) {
      continue;
    }
    const uint64_t seq = ++seq_;
    uint64_t state[4];
    rng.GetState(state);
    PayloadWriter pw;
    pw.PutU64(seq);
    pw.PutU64(generation_);
    for (const uint64_t word : state) {
      pw.PutU64(word);
    }
    (void)transport_.SendTo(w, FrameType::kPrepare, pw.Take());

    std::vector<char> pending(procs_.size(), 0);
    pending[w] = 1;
    for (;;) {
      Frame frame;
      uint32_t from = kNoWorker;
      const FrameStatus status = transport_.RecvAny(slice, &from, &frame);
      if (status == FrameStatus::kOk && from == w &&
          frame.type == FrameType::kPrepareDone) {
        PayloadReader reader(frame.payload);
        if (reader.U64() != seq) {
          continue;  // stale reply from an abandoned attempt
        }
        for (uint64_t& word : state) {
          word = reader.U64();
        }
        rng.SetState(state);
        makespan = std::max(makespan, reader.F64());
        break;
      }
      const uint32_t lapsed = FindDeadWorker(pending);
      if (lapsed != kNoWorker) {
        *dead = lapsed;
        return false;
      }
    }
  }
  if (build_makespan != nullptr) {
    *build_makespan = makespan;
  }
  need_prepare_ = false;
  return true;
}

bool SocketCluster::TryForwardEpoch(const GnnModel& model, Rng& rng, int64_t epoch,
                                    const CrashPlan* kill, Tensor* logits_out,
                                    DistEpochStats* stats, uint32_t* dead) {
  const uint32_t k = parts_->num_parts;
  const double slice = std::min(config_.retry.DetectionSeconds() * 0.25, 0.02);
  WallTimer epoch_timer;
  stats->per_worker_aggregation_seconds.assign(k, 0.0);

  if (need_prepare_ || model.cache_policy == HdgCachePolicy::kPerEpoch) {
    if (!PrepareAll(rng, &stats->neighbor_selection_seconds, dead)) {
      return false;
    }
  }

  // The previous layer's output; layer 0 reads the workers' own features.
  Tensor h;
  for (std::size_t li = 0; li < model.layers.size(); ++li) {
    if (kill != nullptr && kill->layer == static_cast<int>(li) &&
        kill->worker < procs_.size() && procs_[kill->worker].alive) {
      // A genuine kill -9, fired mid-epoch just before this layer's fan-out.
      // Nothing downstream knows it was scheduled: the victim simply falls
      // silent and the heartbeat timeout is what notices.
      FLEX_LOG(Info) << "injected kill: SIGKILL worker " << kill->worker
                     << " (pid " << procs_[kill->worker].pid << ") at epoch "
                     << epoch << ", layer " << li;
      ::kill(procs_[kill->worker].pid, SIGKILL);
    }

    const uint64_t seq = ++seq_;
    PayloadWriter pw;
    pw.PutU64(seq);
    pw.PutU32(static_cast<uint32_t>(epoch));
    pw.PutU32(static_cast<uint32_t>(li));
    if (li == 0) {
      // Layer 0 input is the fork-inherited COW feature matrix; rows == 0
      // tells the worker to use its local copy instead of wire bytes.
      pw.PutU64(0);
      pw.PutU64(0);
    } else {
      pw.PutU64(static_cast<uint64_t>(h.rows()));
      pw.PutU64(static_cast<uint64_t>(h.cols()));
      pw.PutBytes(h.data(), static_cast<std::size_t>(h.numel()) * sizeof(float));
    }
    const std::string payload = pw.Take();
    const uint32_t crc = Crc32(payload.data(), payload.size());

    uint64_t layer_bytes = 0;
    uint32_t layer_messages = 0;
    std::vector<char> pending(k, 0);
    std::vector<char> participated(k, 0);
    uint32_t outstanding = 0;
    for (uint32_t w = 0; w < k; ++w) {
      if (!procs_[w].alive || roots_by_worker_[w].empty()) {
        continue;
      }
      (void)transport_.SendTo(w, FrameType::kLayerRun, payload, crc);
      pending[w] = 1;
      participated[w] = 1;
      ++outstanding;
      layer_bytes += payload.size();
      ++layer_messages;
    }
    FLEX_CHECK_GT(outstanding, 0u);

    struct ReportedSeconds {
      double bottom = 0.0;
      double rest_agg = 0.0;
      double update = 0.0;
    };
    std::vector<ReportedSeconds> times(k);
    Tensor h_next;
    bool h_next_ready = false;

    while (outstanding > 0) {
      Frame frame;
      uint32_t from = kNoWorker;
      const FrameStatus status = transport_.RecvAny(slice, &from, &frame);
      if (status == FrameStatus::kOk && frame.type == FrameType::kLayerRows) {
        PayloadReader reader(frame.payload);
        if (reader.U64() != seq) {
          continue;  // stale reply from an abandoned attempt
        }
        (void)reader.U32();  // epoch
        (void)reader.U32();  // layer
        const uint32_t worker = reader.U32();
        if (worker >= k || worker != from || pending[worker] == 0) {
          continue;
        }
        times[worker].bottom = reader.F64();
        times[worker].rest_agg = reader.F64();
        times[worker].update = reader.F64();
        const uint64_t rows = reader.U64();
        const uint64_t cols = reader.U64();
        const std::vector<VertexId>& roots = roots_by_worker_[worker];
        FLEX_CHECK_EQ(rows, static_cast<uint64_t>(roots.size()));
        if (!h_next_ready) {
          h_next = Tensor(graph_.num_vertices(), static_cast<int64_t>(cols));
          h_next_ready = true;
        }
        for (std::size_t r = 0; r < roots.size(); ++r) {
          reader.Bytes(h_next.Row(roots[r]), cols * sizeof(float));
        }
        layer_bytes += frame.payload.size();
        ++layer_messages;
        pending[worker] = 0;
        --outstanding;
        continue;
      }
      const uint32_t lapsed = FindDeadWorker(pending);
      if (lapsed != kNoWorker) {
        *dead = lapsed;
        stats->comm_bytes_total += static_cast<double>(layer_bytes);
        return false;
      }
    }
    FLEX_CHECK(h_next_ready);

    // Stragglers on the socket backend shape the *reported* timeline only —
    // the frames already landed, so no real sleep is injected.
    if (config_.fault != nullptr) {
      for (uint32_t w = 0; w < k; ++w) {
        if (participated[w] == 0) {
          continue;
        }
        const double factor = config_.fault->StragglerFactor(epoch, w);
        if (factor > 1.0) {
          times[w].bottom *= factor;
          times[w].rest_agg *= factor;
          times[w].update *= factor;
        }
      }
    }

    double layer_agg_makespan = 0.0;
    double layer_update_makespan = 0.0;
    for (uint32_t w = 0; w < k; ++w) {
      if (participated[w] == 0) {
        continue;
      }
      const double agg = times[w].bottom + times[w].rest_agg;
      stats->per_worker_aggregation_seconds[w] += agg;
      FLEX_HIST_OBSERVE("dist.worker_agg_seconds", agg);
      FLEX_HIST_OBSERVE("dist.worker_update_seconds", times[w].update);
      layer_agg_makespan = std::max(layer_agg_makespan, agg);
      layer_update_makespan = std::max(layer_update_makespan, times[w].update);
    }
    stats->aggregation_seconds += layer_agg_makespan;
    stats->update_seconds += layer_update_makespan;

    // Real framed bytes moved for this layer, priced through the transport so
    // the modeled comm fields stay comparable across backends.
    const double priced = transport_.TransferSeconds(layer_bytes, layer_messages);
    stats->comm_bytes_total += static_cast<double>(layer_bytes);
    stats->comm_seconds += priced;
    FLEX_COUNTER_ADD("dist.comm_bytes", static_cast<int64_t>(layer_bytes));
    FLEX_HIST_OBSERVE("dist.comm_seconds", priced);

    h = std::move(h_next);
  }

  stats->makespan_seconds = epoch_timer.ElapsedSeconds();
  FLEX_HIST_OBSERVE("dist.epoch_makespan_seconds", stats->makespan_seconds);
  if (logits_out != nullptr) {
    *logits_out = std::move(h);
  }
  return true;
}

DistEpochStats SocketCluster::RunForwardEpoch(const GnnModel& model, Rng& rng,
                                              int64_t epoch, Tensor* logits_out) {
  FLEX_CHECK_MSG(started_, "RunForwardEpoch before Start");
  std::optional<CrashPlan> kill =
      config_.fault != nullptr ? config_.fault->NextKill(epoch) : std::nullopt;

  double lost_work = 0.0;
  double detection_total = 0.0;
  double lost_bytes = 0.0;
  int64_t crashes = 0;
  int64_t migrated_total = 0;
  for (;;) {
    // Recovery is a rollback to the epoch boundary; restoring the RNG keeps
    // the re-execution on the exact stream the fault-free run would consume.
    const Rng rng_at_boundary = rng;
    DistEpochStats stats;
    uint32_t dead = kNoWorker;
    WallTimer attempt_timer;
    if (TryForwardEpoch(model, rng, epoch, kill ? &*kill : nullptr, logits_out, &stats,
                        &dead)) {
      stats.lost_work_seconds = lost_work;
      stats.detection_seconds = detection_total;
      stats.crashes_recovered = crashes;
      stats.roots_migrated = migrated_total;
      if (crashes > 0) {
        stats.recovery_seconds =
            lost_work + detection_total + stats.neighbor_selection_seconds;
        stats.makespan_seconds += lost_work + detection_total;
        // Traffic spent on the doomed attempts still happened.
        stats.comm_bytes_total += lost_bytes;
        FLEX_HIST_OBSERVE("fault.recovery_seconds", stats.recovery_seconds);
        FLEX_HIST_OBSERVE("fault.lost_work_seconds", stats.lost_work_seconds);
        FLEX_HIST_OBSERVE("fault.detection_seconds", stats.detection_seconds);
      }
      return stats;
    }

    double detection = transport_.SecondsSinceContact(dead);
    if (detection > 1e6) {  // never-contacted sentinel
      detection = config_.retry.DetectionSeconds();
    }
    FLEX_LOG(Warning) << "worker " << dead << " declared dead at epoch " << epoch
                      << " (silent for " << detection << "s); recovering";
    ++crashes;
    detection_total += detection;
    lost_work += attempt_timer.ElapsedSeconds();
    lost_bytes += stats.comm_bytes_total;
    migrated_total += RecoverFrom(dead);
    rng = rng_at_boundary;
    kill.reset();  // one-shot: the re-executed epoch does not kill again
  }
}

void SocketCluster::BroadcastGradients(const GnnModel& model, float lr, int64_t epoch) {
  FLEX_CHECK_MSG(started_, "BroadcastGradients before Start");
  std::optional<CrashPlan> kill =
      config_.fault != nullptr ? config_.fault->NextKill(epoch) : std::nullopt;
  if (kill && kill->worker < procs_.size() && procs_[kill->worker].alive) {
    FLEX_LOG(Info) << "injected kill: SIGKILL worker " << kill->worker << " (pid "
                   << procs_[kill->worker].pid << ") before gradient broadcast, epoch "
                   << epoch;
    ::kill(procs_[kill->worker].pid, SIGKILL);
  }

  const uint64_t seq = ++seq_;
  std::vector<Variable> params = model.Parameters();
  PayloadWriter w;
  w.PutU64(seq);
  w.PutU32(static_cast<uint32_t>(epoch));
  w.PutF32(lr);
  w.PutU32(static_cast<uint32_t>(params.size()));
  for (Variable& p : params) {
    FLEX_CHECK_MSG(p.node()->has_grad(), "BroadcastGradients before Backward");
    const Tensor& grad = p.grad();
    w.PutU64(static_cast<uint64_t>(grad.rows()));
    w.PutU64(static_cast<uint64_t>(grad.cols()));
    w.PutBytes(grad.data(), static_cast<std::size_t>(grad.numel()) * sizeof(float));
  }
  const std::string payload = w.Take();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  for (uint32_t worker = 0; worker < procs_.size(); ++worker) {
    if (procs_[worker].alive) {
      (void)transport_.SendTo(worker, FrameType::kGradients, payload, crc);
    }
  }
}

SocketCluster::GradSyncResult SocketCluster::AwaitParamsAcks(const GnnModel& model,
                                                             int64_t epoch) {
  (void)epoch;  // kept for API symmetry with BroadcastGradients
  GradSyncResult result;
  const uint32_t expected_crc = ParametersCrc(model);
  const double slice = std::min(config_.retry.DetectionSeconds() * 0.25, 0.02);
  const uint64_t seq = seq_;  // the BroadcastGradients round

  std::vector<char> pending(procs_.size(), 0);
  uint32_t outstanding = 0;
  for (uint32_t w = 0; w < procs_.size(); ++w) {
    if (procs_[w].alive) {
      pending[w] = 1;
      ++outstanding;
    }
  }
  while (outstanding > 0) {
    Frame frame;
    uint32_t from = kNoWorker;
    const FrameStatus status = transport_.RecvAny(slice, &from, &frame);
    if (status == FrameStatus::kOk && frame.type == FrameType::kParamsAck) {
      PayloadReader reader(frame.payload);
      if (reader.U64() != seq) {
        continue;
      }
      const uint32_t worker = reader.U32();
      const uint32_t crc = reader.U32();
      if (worker >= procs_.size() || worker != from || pending[worker] == 0) {
        continue;
      }
      // The whole point of the ack: a replica whose SGD step produced even
      // one differing byte is a protocol/determinism bug and must fail the
      // run, not silently train a diverged model.
      FLEX_CHECK_MSG(crc == expected_crc,
                     "worker " + std::to_string(worker) +
                         " parameter replica diverged from the supervisor");
      pending[worker] = 0;
      --outstanding;
      continue;
    }
    const uint32_t lapsed = FindDeadWorker(pending);
    if (lapsed != kNoWorker) {
      double detection = transport_.SecondsSinceContact(lapsed);
      if (detection > 1e6) {
        detection = config_.retry.DetectionSeconds();
      }
      FLEX_LOG(Warning) << "worker " << lapsed
                        << " declared dead during gradient sync (silent for "
                        << detection << "s); continuing on survivors";
      ++result.workers_killed;
      result.detection_seconds += detection;
      result.roots_migrated += RecoverFrom(lapsed);
      pending[lapsed] = 0;
      --outstanding;
    }
  }
  return result;
}

void SocketCluster::Shutdown() {
  if (!started_) {
    return;
  }
  for (uint32_t w = 0; w < procs_.size(); ++w) {
    if (procs_[w].alive) {
      (void)transport_.SendTo(w, FrameType::kShutdown, std::string());
    }
  }
  for (uint32_t w = 0; w < procs_.size(); ++w) {
    Proc& proc = procs_[w];
    if (!proc.alive || proc.pid <= 0) {
      continue;
    }
    WallTimer timer;
    for (;;) {
      const pid_t r = ::waitpid(proc.pid, nullptr, WNOHANG);
      if (r == proc.pid || (r < 0 && errno == ECHILD)) {
        break;
      }
      if (timer.ElapsedSeconds() > 2.0) {
        // A worker that ignores kShutdown for 2s is wedged; fence it.
        ::kill(proc.pid, SIGKILL);
        ::waitpid(proc.pid, nullptr, 0);
        break;
      }
      SleepSeconds(0.002);
    }
    proc.pid = -1;
    proc.alive = false;
  }
  transport_.CloseAll();
  started_ = false;
}

}  // namespace flexgraph
