// Distributed backend selection (DESIGN.md §15).
//
// Two backends run the distributed runtime and trainer:
//
//   * kModeled executes every worker in this process and prices each
//     transfer with the analytic NetworkModel — the Fig-13/Fig-15 simulator.
//   * kSocket forks one real worker process per partition and moves the
//     messages over Unix-domain sockets (src/dist/transport_socket.h,
//     src/dist/supervisor.h).
//
// Both price transfers by calling NetworkModel::TransferSeconds directly, so
// the stat fields stay comparable. flexgraph_train --backend modeled|socket
// selects one; either way the computed features are bitwise identical
// (tests/dist_test.cc parity sweep) — the backend changes how bytes move,
// never the math.
#ifndef SRC_DIST_TRANSPORT_H_
#define SRC_DIST_TRANSPORT_H_

#include <string>

#include "src/dist/network_model.h"

namespace flexgraph {

enum class DistBackend {
  kModeled,  // single process, modeled network (the paper-figure simulator)
  kSocket,   // forked worker processes, Unix-domain sockets
};

const char* DistBackendName(DistBackend backend);

// Parses "modeled" / "socket" (CLI --backend). Returns false on anything else.
bool ParseDistBackend(const std::string& name, DistBackend* out);

// Rejects configurations that silently poison every makespan downstream: a
// zero/negative bandwidth turns TransferSeconds into inf/NaN, a negative
// latency into time travel. Throws CheckError; called at runtime/trainer
// construction so the bad config fails at the boundary, not epochs later.
void ValidateNetworkModel(const NetworkModel& model);

}  // namespace flexgraph

#endif  // SRC_DIST_TRANSPORT_H_
