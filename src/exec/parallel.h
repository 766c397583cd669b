// Process-wide kernel thread-count knob and deterministic parallel loops for
// the planned execution layer. Unlike ThreadPool::Global(), this pool is
// reconfigurable at runtime (--threads / FLEXGRAPH_NUM_THREADS), and every
// loop here partitions work into fixed contiguous ranges whose boundaries do
// not depend on the thread count — each output row is written by exactly one
// task and per-row accumulation order never changes, so kernel results are
// bitwise identical across thread counts.
#ifndef SRC_EXEC_PARALLEL_H_
#define SRC_EXEC_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>

namespace flexgraph {
namespace exec {

// Minimum touched floats before a kernel fans out to the pool — the single
// tuning knob every kernel's inline/parallel decision derives from, fixed so
// the decision never depends on the thread count. Retuned after the pool
// moved to RunBatch (caller drains the queue alongside the workers): the
// wake-chain handshake costs a flat ~1-4 us per batch regardless of size, so
// the old 64k-float cutover paid up to 13% overhead at 8 threads (28.7 us
// pooled vs 25.5 us inline on the stream-add sweep), while at 128k floats
// the same handshake is under 8% (57 us vs 53 us) and vanishes into the
// noise by 256k. 128k floats = 512 KiB touched, still far below the point
// where a second core's L2/bandwidth stops paying for itself, so raising
// the floor costs nothing on real multicore hosts.
inline constexpr std::int64_t kMinParallelWork = 1 << 17;

// Row-granularity helper: the minimum rows per task so a task covers at
// least kMinParallelWork floats at `cols` floats per row.
inline std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, kMinParallelWork / std::max<std::int64_t>(1, cols));
}

// Current kernel thread count (>= 1). Initialized on first use from
// FLEXGRAPH_NUM_THREADS, falling back to std::thread::hardware_concurrency().
int NumThreads();

// Reconfigures the kernel pool. n <= 0 resets to the environment/hardware
// default. Safe to call between kernels; not from inside a parallel body.
void SetNumThreads(int n);

// Must be called first thing in a freshly forked child process (alongside
// ThreadPool::ReinitGlobalAfterFork): the inherited kernel pool's threads
// exist only in the parent, so the child abandons it and rebuilds on first
// use. Destroying it instead would join threads that never existed here.
void ReinitPoolAfterFork();

// Runs body(lo, hi) over contiguous subranges covering [begin, end). Ranges
// never overlap, so the body may write freely to per-index outputs. `grain`
// is the minimum range width; when the loop is too small to split (or the
// pool has one thread) the body runs inline as body(begin, end). Blocks until
// every range is done. The body must not throw.
void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& body);

// Convenience for chunk tables (e.g. an ExecutionPlan's segment chunks):
// runs body(chunk_index) for each c in [0, num_chunks), one task per chunk.
void ParallelChunks(std::int64_t num_chunks,
                    const std::function<void(std::int64_t)>& body);

// Runs body(s_lo, s_hi) over segment-aligned chunks of `offsets`: `chunks`
// are precomputed boundaries (an ExecutionPlan's), or empty to derive fixed
// ones (MakeSegmentChunks). Runs inline as body(0, num_segments) when
// total_work is below kMinParallelWork or the pool has one thread. A chunk
// never splits a segment, so per-segment work is the sequential kernel's and
// results are bitwise identical across thread counts.
void ForEachSegmentChunk(std::span<const std::uint64_t> offsets,
                         std::span<const std::int64_t> chunks, std::int64_t total_work,
                         const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace exec
}  // namespace flexgraph

#endif  // SRC_EXEC_PARALLEL_H_
