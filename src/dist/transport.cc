#include "src/dist/transport.h"

#include "src/util/check.h"

namespace flexgraph {

const char* DistBackendName(DistBackend backend) {
  switch (backend) {
    case DistBackend::kModeled:
      return "modeled";
    case DistBackend::kSocket:
      return "socket";
  }
  return "unknown";
}

bool ParseDistBackend(const std::string& name, DistBackend* out) {
  if (name == "modeled") {
    *out = DistBackend::kModeled;
    return true;
  }
  if (name == "socket") {
    *out = DistBackend::kSocket;
    return true;
  }
  return false;
}

void ValidateNetworkModel(const NetworkModel& model) {
  FLEX_CHECK_MSG(model.latency_seconds >= 0.0,
                 "NetworkModel.latency_seconds must be >= 0");
  FLEX_CHECK_MSG(model.bandwidth_bytes_per_sec > 0.0,
                 "NetworkModel.bandwidth_bytes_per_sec must be > 0 "
                 "(zero would price every transfer at inf/NaN)");
}

}  // namespace flexgraph
