// Fixed, thread-count-independent chunk boundary computation shared by the
// plan compiler and the kernels that derive chunks on the fly when called
// without a precompiled chunk table. Boundaries live in segment space — a
// chunk never straddles a segment — so every output row is written by
// exactly one task and per-segment accumulation order matches the
// sequential kernels: results are bitwise identical across thread counts.
#ifndef SRC_EXEC_CHUNKS_H_
#define SRC_EXEC_CHUNKS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace flexgraph {

// Default chunk target used by plan compilation and on-the-fly chunking. Fixed
// (not a function of the thread count) so chunkings — and therefore results —
// are identical no matter how many threads execute them; 64 balances well up
// to 16 threads. Re-checked after the RunBatch pool change: ParallelChunks
// coalesces chunks into at most threads*2 tasks, so the chunk count no
// longer drives queue-handshake overhead (a flat ~1-4 us per batch on the
// cutover sweep) — only load balance, where 64 remains comfortably finer
// than any supported thread count.
inline constexpr int64_t kPlanChunkTarget = 64;

// Chunk boundaries over segments, balanced by per-segment width
// (offsets[s+1] - offsets[s]). Returns [C+1] boundaries with C <=
// target_chunks; boundaries depend only on the offsets and target.
std::vector<int64_t> MakeSegmentChunks(std::span<const uint64_t> offsets,
                                       int64_t target_chunks);

// Even row-space split, same determinism contract.
std::vector<int64_t> MakeRowChunks(int64_t rows, int64_t target_chunks);

}  // namespace flexgraph

#endif  // SRC_EXEC_CHUNKS_H_
