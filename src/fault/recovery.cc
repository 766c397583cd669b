#include "src/fault/recovery.h"

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace flexgraph {

MigrationResult MigrateRoots(Partitioning& parts, uint32_t dead) {
  FLEX_CHECK_LT(dead, parts.num_parts);
  FLEX_CHECK_MSG(parts.num_parts >= 2, "cannot migrate: no surviving worker");

  std::vector<uint64_t> load(parts.num_parts, 0);
  for (uint32_t owner : parts.owner) {
    FLEX_CHECK_LT(owner, parts.num_parts);
    ++load[owner];
  }

  MigrationResult result;
  result.dead_worker = dead;
  for (VertexId v = 0; v < parts.owner.size(); ++v) {
    if (parts.owner[v] != dead) {
      continue;
    }
    // Least-loaded survivor; lowest id wins ties so migration is
    // deterministic. A part that owns nothing is not a survivor: an earlier
    // death emptied it.
    uint32_t target = parts.num_parts;
    for (uint32_t p = 0; p < parts.num_parts; ++p) {
      if (p == dead || load[p] == 0) {
        continue;
      }
      if (target == parts.num_parts || load[p] < load[target]) {
        target = p;
      }
    }
    FLEX_CHECK_MSG(target < parts.num_parts, "cannot migrate: no surviving worker");
    parts.owner[v] = target;
    ++load[target];
    --load[dead];
    result.migrated.push_back(v);
    result.new_owner.push_back(target);
  }
  FLEX_CHECK_EQ(load[dead], 0u);
  FLEX_COUNTER_ADD("fault.roots_migrated", static_cast<int64_t>(result.migrated.size()));
  return result;
}

}  // namespace flexgraph
