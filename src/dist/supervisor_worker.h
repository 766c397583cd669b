// Worker-process entry point for the socket backend (DESIGN.md §15).
//
// The supervisor fork()s one process per worker; the child lands in
// WorkerMain and never returns. Graph, model and features are inherited
// copy-on-write from the fork — only deltas (partitions, RNG state, layer
// inputs, gradients) ever cross the wire.
//
// Worker lifecycle:
//   1. Rebuild the process-local thread pools (the inherited ones have no
//      threads in this process), arm PDEATHSIG so a dying supervisor reaps us.
//   2. Connect to the supervisor's endpoint with backoff, introduce ourselves
//      with kHello and one kHeartbeat, and start the heartbeat thread
//      (period = half the RetryPolicy heartbeat timeout, so the supervisor
//      sees ≥2 beats per detection window even while the main thread is deep
//      in a kernel).
//   3. Serve frames: kPartition/kPrepare/kLayerRun/kGradients/kShutdown.
//      All math goes through the same worker_exec.h helpers as the modeled
//      backend — bitwise-identical results by construction.
//   4. On a transient channel error: reconnect with backoff and re-Hello.
//      On kShutdown or exhausted retries: _exit (never return into the
//      supervisor's stack, never run the parent's atexit handlers).
#ifndef SRC_DIST_SUPERVISOR_WORKER_H_
#define SRC_DIST_SUPERVISOR_WORKER_H_

#include <string>

#include "src/core/engine.h"
#include "src/fault/retry.h"

namespace flexgraph {

struct WorkerProcessConfig {
  uint32_t worker_id = 0;
  std::string endpoint;
  // Inherited COW state — pointers into the forked address space.
  const CsrGraph* graph = nullptr;
  const GnnModel* model = nullptr;
  const Tensor* features = nullptr;
  ExecStrategy strategy = ExecStrategy::kHybrid;
  RetryPolicy retry;
};

// Heartbeat period derived from the retry policy's heartbeat timeout.
double HeartbeatIntervalSeconds(const RetryPolicy& retry);

// Runs the worker protocol loop; terminates the process via _exit.
[[noreturn]] void WorkerMain(const WorkerProcessConfig& config);

}  // namespace flexgraph

#endif  // SRC_DIST_SUPERVISOR_WORKER_H_
