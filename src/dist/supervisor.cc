#include "src/dist/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "src/dist/supervisor_worker.h"
#include "src/dist/worker_exec.h"
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
    : graph_(graph), parts_(parts), config_(config) {
  FLEX_CHECK(parts_ != nullptr);
  FLEX_CHECK_EQ(parts_->owner.size(), static_cast<std::size_t>(graph_.num_vertices()));
  FLEX_CHECK_GE(parts_->num_parts, 1u);
}

SocketCluster::~SocketCluster() { Shutdown(); }

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

void SocketCluster::Kill(const CrashPlan& crash) {
  const uint32_t w = crash.worker;
  if (w < procs_.size() && procs_[w].alive && !roots_by_worker_[w].empty()) {
    // A genuine kill -9. Nothing downstream knows it was scheduled: the
    // victim simply falls silent and the heartbeat timeout is what notices.
    FLEX_LOG(Info) << "injected crash: SIGKILL worker " << w << " (pid " << procs_[w].pid
                   << ")";
    ::kill(procs_[w].pid, SIGKILL);
  }
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

uint32_t SocketCluster::FindDeadWorker(const std::vector<char>& pending) const {
  const double detection = config_.retry.DetectionSeconds();
  for (uint32_t w = 0; w < pending.size(); ++w) {
    if (pending[w] != 0 && transport_.SecondsSinceContact(w) > detection) {
      return w;
    }
  }
  return kNoWorker;
}

WorkerDeath SocketCluster::DeclareDead(uint32_t worker) {
  double silence = transport_.SecondsSinceContact(worker);
  if (silence > 1e6) {  // never-contacted sentinel
    silence = config_.retry.DetectionSeconds();
  }
  ReapWorker(worker);
  return WorkerDeath{worker, silence};
}

bool SocketCluster::PrepareAll(Rng& rng, double* build_makespan, WorkerDeath* death) {
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
        *death = DeclareDead(lapsed);
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
                                    const CrashPlan* crash, Tensor* logits_out,
                                    DistEpochStats* stats, WorkerDeath* death) {
  FLEX_CHECK_MSG(started_, "TryForwardEpoch before Start");
  const uint32_t k = parts_->num_parts;
  const double slice = std::min(config_.retry.DetectionSeconds() * 0.25, 0.02);
  WallTimer epoch_timer;
  stats->per_worker_aggregation_seconds.assign(k, 0.0);
  // An aborted attempt's cost is its wall time up to the declaration, less
  // the silence the caller charges as detection.
  auto abandon = [&] {
    stats->makespan_seconds =
        std::max(0.0, epoch_timer.ElapsedSeconds() - death->detection_seconds);
    return false;
  };

  if (need_prepare_ || model.cache_policy == HdgCachePolicy::kPerEpoch) {
    if (!PrepareAll(rng, &stats->neighbor_selection_seconds, death)) {
      return abandon();
    }
  }

  // The previous layer's output; layer 0 reads the workers' own features.
  Tensor h;
  for (std::size_t li = 0; li < model.layers.size(); ++li) {
    if (crash != nullptr && crash->layer == static_cast<int>(li)) {
      Kill(*crash);  // just before this layer's fan-out
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
        *death = DeclareDead(lapsed);
        stats->comm_bytes_total += static_cast<double>(layer_bytes);
        return abandon();
      }
    }
    FLEX_CHECK(h_next_ready);

    // Stragglers and message faults on the socket backend shape the
    // *reported* timeline only — the frames already landed, so nothing real
    // is slept or re-sent. A failed delivery into a participant is priced as
    // the modeled epoch prices it (timeout + backoff per failed attempt);
    // retries to different workers wait out their timeouts side by side, so
    // the layer's priced wire time grows by the largest penalty.
    double retry_penalty = 0.0;
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
      for (uint32_t w = 0; w < k; ++w) {
        if (participated[w] == 0) {
          continue;
        }
        const int failures = config_.fault->TransferFailures(epoch, static_cast<int>(li), w);
        if (failures > 0) {
          const double penalty = config_.retry.PenaltySeconds(failures);
          stats->transfer_retries += failures;
          stats->retry_wait_seconds += penalty;
          FLEX_HIST_OBSERVE("fault.retry_wait_seconds", penalty);
          retry_penalty = std::max(retry_penalty, penalty);
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

    // Real framed bytes moved for this layer, priced with the network model
    // so the comm fields stay comparable across backends.
    const double priced =
        config_.network.TransferSeconds(layer_bytes, layer_messages) + retry_penalty;
    stats->comm_bytes_total += static_cast<double>(layer_bytes);
    stats->comm_seconds += priced;
    FLEX_COUNTER_ADD("dist.comm_bytes", static_cast<int64_t>(layer_bytes));
    FLEX_HIST_OBSERVE("dist.comm_seconds", priced);

    h = std::move(h_next);
  }

  stats->makespan_seconds = epoch_timer.ElapsedSeconds();
  if (logits_out != nullptr) {
    *logits_out = std::move(h);
  }
  return true;
}

void SocketCluster::BroadcastGradients(const GnnModel& model, float lr, int64_t epoch,
                                       const CrashPlan* crash) {
  FLEX_CHECK_MSG(started_, "BroadcastGradients before Start");
  if (crash != nullptr) {
    Kill(*crash);  // just before the gradient broadcast
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

std::vector<WorkerDeath> SocketCluster::AwaitParamsAcks(const GnnModel& model) {
  std::vector<WorkerDeath> deaths;
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
      deaths.push_back(DeclareDead(lapsed));
      pending[lapsed] = 0;
      --outstanding;
    }
  }
  return deaths;
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
