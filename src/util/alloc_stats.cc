#include "src/util/alloc_stats.h"

#include "src/obs/metrics.h"

namespace flexgraph {
namespace allocstats {
namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_thread_allocs = 0;
thread_local std::uint64_t g_allocs = 0;
thread_local std::uint64_t g_alloc_bytes = 0;

}  // namespace

void SetScopedCounting(bool on) { g_counting = on; }

bool ScopedCountingActive() { return g_counting; }

void NoteHeapAlloc(std::size_t bytes) {
  ++g_thread_allocs;
  if (!g_counting) {
    return;
  }
  ++g_allocs;
  g_alloc_bytes += bytes;
  FLEX_COUNTER_ADD("exec.alloc_count", 1);
}

std::uint64_t ThreadHeapAllocs() { return g_thread_allocs; }

std::uint64_t ScopedHeapAllocs() { return g_allocs; }

std::uint64_t ScopedHeapAllocBytes() { return g_alloc_bytes; }

void ResetScopedTally() {
  g_allocs = 0;
  g_alloc_bytes = 0;
}

}  // namespace allocstats
}  // namespace flexgraph
