// Heap-allocation accounting for the planned execution layer. While a
// workspace scope is active (see src/tensor/workspace.h) every AlignedBuffer
// heap allocation on that thread is counted as a plan miss: steady-state
// epochs are supposed to draw all tensor storage from the arena, so the
// exec.alloc_count metric should stay flat from the second epoch onward.
#ifndef SRC_UTIL_ALLOC_STATS_H_
#define SRC_UTIL_ALLOC_STATS_H_

#include <cstddef>
#include <cstdint>

namespace flexgraph {
namespace allocstats {

// Enables/disables per-thread counting of tensor-buffer heap allocations.
// Toggled by WorkspaceScope; nesting-safe because callers save and restore
// the previous value.
void SetScopedCounting(bool on);
bool ScopedCountingActive();

// Called by AlignedBuffer::Allocate for every heap allocation. No-op unless
// counting is active on this thread; otherwise bumps both the thread-local
// tally and the global exec.alloc_count metric.
void NoteHeapAlloc(std::size_t bytes);

// Every tensor-buffer heap allocation on this thread so far, counted whether
// or not a workspace scope is active. Paths that compute on the heap by design
// (DistributedTrainer::TrainEpoch) are measured as a delta of this, without
// touching exec.alloc_count.
std::uint64_t ThreadHeapAllocs();

// Thread-local tally since the last ResetScopedTally(), for tests and the
// stage table.
std::uint64_t ScopedHeapAllocs();
std::uint64_t ScopedHeapAllocBytes();
void ResetScopedTally();

}  // namespace allocstats
}  // namespace flexgraph

#endif  // SRC_UTIL_ALLOC_STATS_H_
