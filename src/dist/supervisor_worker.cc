#include "src/dist/supervisor_worker.h"

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <thread>  // heartbeat sender thread, see allow comment at the spawn site
#include <vector>

#ifdef __linux__
#include <signal.h>
#include <sys/prctl.h>
#endif

#include "src/dist/transport_frame.h"
#include "src/dist/transport_socket.h"
#include "src/dist/worker_exec.h"
#include "src/exec/parallel.h"
#include "src/partition/partition.h"
#include "src/tensor/nn.h"
#include "src/util/check.h"
#include "src/util/logging.h"
#include "src/util/mutex.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace flexgraph {

namespace {

// Frame writes from two threads (the protocol loop's replies, the heartbeat
// sender's beats) interleave on one stream socket, so every write goes
// through this shared, mutex-guarded channel. The fd is also updated here on
// reconnect, which is what parks the heartbeat sender while the main thread
// is re-dialing.
struct SendChannel {
  Mutex mutex;
  int fd FLEX_GUARDED_BY(mutex) = -1;
  bool stop FLEX_GUARDED_BY(mutex) = false;
  std::condition_variable_any cv;
};

void SendLocked(SendChannel& chan, FrameType type, const std::string& payload) {
  MutexLock lock(chan.mutex);
  if (chan.fd < 0) {
    return;
  }
  // A failed write is not handled here: the protocol loop's next read on the
  // same fd sees the error and owns reconnection.
  (void)WriteFrame(chan.fd, type, payload);
}

std::string HeartbeatPayload(uint32_t worker_id, uint64_t beat) {
  PayloadWriter w;
  w.PutU32(worker_id);
  w.PutU64(beat);
  return w.Take();
}

void HeartbeatLoop(SendChannel* chan, uint32_t worker_id, double interval_seconds) {
  uint64_t beat = 1;  // beat 0 is the one Introduce writes on each connection
  chan->mutex.Lock();
  while (!chan->stop) {
    chan->cv.wait_for(chan->mutex, std::chrono::duration<double>(interval_seconds));
    if (chan->stop) {
      break;
    }
    if (chan->fd < 0) {
      continue;  // mid-reconnect; the liveness clock is ticking, hurry back
    }
    (void)WriteFrame(chan->fd, FrameType::kHeartbeat, HeartbeatPayload(worker_id, beat++));
  }
  chan->mutex.Unlock();
}

std::string HelloPayload(uint32_t worker_id) {
  PayloadWriter w;
  w.PutU32(worker_id);
  w.PutU64(static_cast<uint64_t>(::getpid()));
  return w.Take();
}

// Opens a fresh connection: kHello, then one kHeartbeat. The beat precedes
// every reply on the stream, so the supervisor reads at least one beat per
// connection however soon the run ends; the heartbeat thread adds one per
// interval after that. Called with the thread parked (chan.fd < 0).
bool Introduce(int fd, uint32_t worker_id) {
  return WriteFrame(fd, FrameType::kHello, HelloPayload(worker_id)) == FrameStatus::kOk &&
         WriteFrame(fd, FrameType::kHeartbeat, HeartbeatPayload(worker_id, 0)) ==
             FrameStatus::kOk;
}

int RunWorker(const WorkerProcessConfig& config) {
  int fd = SocketTransport::ConnectWithBackoff(config.endpoint, config.retry);
  if (fd < 0) {
    FLEX_LOG(Error) << "worker " << config.worker_id
                    << " could not reach the supervisor at " << config.endpoint;
    return 1;
  }
  if (!Introduce(fd, config.worker_id)) {
    return 1;
  }

  SendChannel chan;
  {
    MutexLock lock(chan.mutex);
    chan.fd = fd;
  }
  // Heartbeats come from a dedicated thread, NOT the protocol loop: a single
  // layer's aggregation can run longer than the supervisor's detection
  // window, and a worker that only beats between frames would be declared
  // dead mid-kernel. The pools in thread_pool.h/parallel.h are for compute
  // fan-out and would serialize behind those same kernels, so this is a raw
  // std::thread by design.
  std::thread heartbeat(  // fglint-allow: raw-thread
      HeartbeatLoop, &chan, config.worker_id,
      HeartbeatIntervalSeconds(config.retry));

  Partitioning parts;
  uint64_t generation = 0;
  WorkerState ws;
  ws.id = config.worker_id;
  Rng rng(0);  // state always installed by kPrepare before use
  std::vector<Variable> params = config.model->Parameters();
  // Layer 0's input: the fork-inherited feature matrix, wrapped once.
  const Variable features = Variable::Leaf(*config.features);

  int exit_code = 0;
  for (;;) {
    Frame frame;
    const FrameStatus status = ReadFrame(fd, &frame, /*timeout_seconds=*/-1.0);
    if (status != FrameStatus::kOk) {
      // Transient error or supervisor restart: park the heartbeat sender,
      // re-dial with backoff, re-introduce ourselves. If the listener is
      // gone for good the backoff exhausts and we exit loudly.
      FLEX_LOG(Warning) << "worker " << config.worker_id << " channel error ("
                        << FrameStatusName(status) << "); reconnecting";
      {
        MutexLock lock(chan.mutex);
        chan.fd = -1;
      }
      ::close(fd);
      fd = SocketTransport::ConnectWithBackoff(config.endpoint, config.retry);
      if (fd < 0) {
        FLEX_LOG(Error) << "worker " << config.worker_id
                        << " reconnect attempts exhausted";
        exit_code = 1;
        break;
      }
      if (!Introduce(fd, config.worker_id)) {
        exit_code = 1;
        break;
      }
      {
        MutexLock lock(chan.mutex);
        chan.fd = fd;
      }
      continue;
    }

    if (frame.type == FrameType::kShutdown) {
      break;
    }

    PayloadReader reader(frame.payload);
    switch (frame.type) {
      case FrameType::kPartition: {
        // New ownership (initial, or post-recovery with a bumped generation).
        // Roots are derived locally exactly as the modeled Prepare derives
        // them: every vertex this worker owns, in vertex order.
        generation = reader.U64();
        parts.num_parts = reader.U32();
        const uint32_t num_vertices = static_cast<uint32_t>(reader.U64());
        parts.owner.resize(num_vertices);
        reader.Bytes(parts.owner.data(), num_vertices * sizeof(uint32_t));
        ws.roots.clear();
        for (VertexId v = 0; v < num_vertices; ++v) {
          if (parts.owner[v] == config.worker_id) {
            ws.roots.push_back(v);
          }
        }
        break;
      }
      case FrameType::kPrepare: {
        const uint64_t seq = reader.U64();
        const uint64_t prepare_generation = reader.U64();
        FLEX_CHECK_EQ(prepare_generation, generation);
        uint64_t state[4];
        for (uint64_t& word : state) {
          word = reader.U64();
        }
        rng.SetState(state);
        PrepareWorkerState(*config.model, *config.graph, parts, config.strategy,
                           rng, &ws);
        rng.GetState(state);
        PayloadWriter w;
        w.PutU64(seq);
        for (const uint64_t word : state) {
          w.PutU64(word);
        }
        w.PutF64(ws.hdg_build_seconds);
        SendLocked(chan, FrameType::kPrepareDone, w.Take());
        break;
      }
      case FrameType::kLayerRun: {
        const uint64_t seq = reader.U64();
        const uint32_t epoch = reader.U32();
        const uint32_t layer = reader.U32();
        const uint64_t in_rows = reader.U64();
        const uint64_t in_cols = reader.U64();
        FLEX_CHECK_LT(layer, config.model->layers.size());
        // rows == 0 means "layer 0": use the fork-inherited feature matrix
        // instead of shipping it over the wire every epoch.
        Variable h_var = features;
        if (in_rows > 0) {
          Tensor h = Tensor::Uninitialized(static_cast<int64_t>(in_rows),
                                           static_cast<int64_t>(in_cols));
          reader.Bytes(h.data(), in_rows * in_cols * sizeof(float));
          h_var = Variable::Leaf(std::move(h));
        }
        WorkerLayerSeconds seconds;
        Tensor rows;
        if (!ws.roots.empty()) {
          rows = ExecuteWorkerLayer(*config.model->layers[layer], config.strategy,
                                    ws, h_var, &seconds);
        }
        PayloadWriter w;
        w.PutU64(seq);
        w.PutU32(epoch);
        w.PutU32(layer);
        w.PutU32(config.worker_id);
        w.PutF64(seconds.bottom);
        w.PutF64(seconds.rest_agg);
        w.PutF64(seconds.update);
        w.PutU64(static_cast<uint64_t>(rows.rows()));
        w.PutU64(static_cast<uint64_t>(rows.cols()));
        w.PutBytes(rows.data(),
                   static_cast<std::size_t>(rows.numel()) * sizeof(float));
        SendLocked(chan, FrameType::kLayerRows, w.Take());
        break;
      }
      case FrameType::kGradients: {
        const uint64_t seq = reader.U64();
        (void)reader.U32();  // epoch — informational
        const float lr = reader.F32();
        const uint32_t count = reader.U32();
        FLEX_CHECK_EQ(static_cast<std::size_t>(count), params.size());
        for (uint32_t i = 0; i < count; ++i) {
          const uint64_t rows = reader.U64();
          const uint64_t cols = reader.U64();
          Tensor& grad = params[i].grad();  // lazily shaped to the value
          FLEX_CHECK_EQ(static_cast<uint64_t>(grad.rows()), rows);
          FLEX_CHECK_EQ(static_cast<uint64_t>(grad.cols()), cols);
          reader.Bytes(grad.data(), rows * cols * sizeof(float));
        }
        // The step below is the SAME code the supervisor runs on its own
        // replica — bitwise-identical parameters by construction, and the
        // CRC in the ack is how the supervisor proves it every epoch.
        SgdOptimizer(lr).Step(params);
        SgdOptimizer::ZeroGrad(params);
        PayloadWriter w;
        w.PutU64(seq);
        w.PutU32(config.worker_id);
        w.PutU32(ParametersCrc(*config.model));
        SendLocked(chan, FrameType::kParamsAck, w.Take());
        break;
      }
      default:
        FLEX_LOG(Warning) << "worker " << config.worker_id
                          << " ignoring unexpected frame type "
                          << static_cast<uint32_t>(frame.type);
        break;
    }
  }

  {
    MutexLock lock(chan.mutex);
    chan.stop = true;
    chan.fd = -1;
  }
  chan.cv.notify_all();
  heartbeat.join();
  ::close(fd);
  return exit_code;
}

}  // namespace

double HeartbeatIntervalSeconds(const RetryPolicy& retry) {
  // Half the heartbeat timeout: the supervisor sees at least two beats per
  // DetectionSeconds() window even if one is delayed behind a reply frame.
  return retry.timeout_seconds * 0.5;
}

void WorkerMain(const WorkerProcessConfig& config) {
  // The forked child inherits pool *objects* whose threads exist only in the
  // parent; queuing to them would hang forever. Rebuild both before any
  // compute, and before anything that could log from a pool thread.
  ThreadPool::ReinitGlobalAfterFork();
  exec::ReinitPoolAfterFork();
#ifdef __linux__
  // If the supervisor dies without a clean Shutdown, the kernel reaps us —
  // no orphan worker survives to hold the endpoint or burn CPU.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  SetLogWorkerId(static_cast<int>(config.worker_id));
  int exit_code = 1;
  try {
    exit_code = RunWorker(config);
  } catch (const std::exception& e) {
    FLEX_LOG(Error) << "worker " << config.worker_id
                    << " terminating on exception: " << e.what();
    exit_code = 1;
  } catch (...) {
    exit_code = 1;
  }
  // _exit, not exit: the child must never run the parent's atexit handlers,
  // flush its duplicated stdio buffers, or trip LeakSanitizer on the
  // deliberately-leaked global pools.
  ::_exit(exit_code);
}

}  // namespace flexgraph
