// Elastic re-partitioning after a worker crash.
//
// When a worker dies, its root vertices migrate onto the surviving workers
// (least-loaded-first, deterministic tie-break by lowest part id) so training
// continues on a smaller cluster. The partition count is unchanged — the dead
// part simply owns nothing — which keeps every downstream structure sized
// consistently; empty workers are skipped by the runtime, and a part that
// owns nothing is never a migration target. The survivors then
// rebuild their HDGs and communication plans for the enlarged root sets; that
// rebuild is a NeighborSelection pass and is accounted as such in the epoch
// makespan.
//
// Migration never changes the math: each root's aggregation depends only on
// its own HDG records, which are identical regardless of which worker builds
// them (for deterministic neighbor-selection UDFs), so post-recovery vertex
// features are bit-identical to the fault-free run.
#ifndef SRC_FAULT_RECOVERY_H_
#define SRC_FAULT_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "src/partition/partition.h"

namespace flexgraph {

// A worker the cluster declared dead, and how long the declaration took:
// RetryPolicy::DetectionSeconds() on the in-process backend, the measured
// heartbeat silence on the socket backend.
struct WorkerDeath {
  uint32_t worker = 0;
  double detection_seconds = 0.0;
};

struct MigrationResult {
  uint32_t dead_worker = 0;
  std::vector<VertexId> migrated;    // vertices moved off the dead worker
  std::vector<uint32_t> new_owner;   // new owner of migrated[i]
};

// Reassigns every vertex owned by `dead` to the surviving parts (those that
// still own roots), keeping part sizes balanced. Requires at least one
// survivor. Postcondition (the tests assert it): every vertex has exactly
// one owner < num_parts and the dead part owns nothing.
MigrationResult MigrateRoots(Partitioning& parts, uint32_t dead);

}  // namespace flexgraph

#endif  // SRC_FAULT_RECOVERY_H_
