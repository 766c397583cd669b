#include "src/exec/parallel.h"

#include <algorithm>
#include <memory>
#include <thread>

#include "src/exec/chunks.h"
#include "src/util/check.h"
#include "src/util/env.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace flexgraph {
namespace exec {
namespace {

int DefaultThreads() {
  const int64_t env = EnvInt("FLEXGRAPH_NUM_THREADS", 0);
  if (env > 0) {
    return static_cast<int>(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Mutex g_mutex;
int g_num_threads FLEX_GUARDED_BY(g_mutex) = 0;  // 0 = not yet initialized
std::unique_ptr<ThreadPool> g_pool FLEX_GUARDED_BY(g_mutex);

// Returns the pool for the current configuration, or nullptr when single-
// threaded (callers run inline).
ThreadPool* PoolLocked() FLEX_REQUIRES(g_mutex) {
  if (g_num_threads == 0) {
    g_num_threads = DefaultThreads();
  }
  if (g_num_threads <= 1) {
    return nullptr;
  }
  if (g_pool == nullptr || g_pool->num_threads() != static_cast<std::size_t>(g_num_threads)) {
    g_pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(g_num_threads));
  }
  return g_pool.get();
}

}  // namespace

int NumThreads() {
  MutexLock lock(g_mutex);
  if (g_num_threads == 0) {
    g_num_threads = DefaultThreads();
  }
  return g_num_threads;
}

void SetNumThreads(int n) {
  MutexLock lock(g_mutex);
  g_num_threads = n <= 0 ? DefaultThreads() : n;
  // Drop an over/under-sized pool; PoolLocked() rebuilds on next use.
  if (g_pool != nullptr && g_pool->num_threads() != static_cast<std::size_t>(g_num_threads)) {
    g_pool.reset();
  }
}

void ReinitPoolAfterFork() {
  // The child is single-threaded here, so the lock is uncontended; it is taken
  // anyway to keep the thread-safety annotations honest. release() (not
  // reset()) abandons the inherited pool — its worker threads died with the
  // parent's address space, so the destructor's join would hang forever.
  MutexLock lock(g_mutex);
  ThreadPool* stale = g_pool.release();
  (void)stale;
}

void ParallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t n = end - begin;
  if (n <= 0) {
    return;
  }
  if (grain < 1) {
    grain = 1;
  }
  ThreadPool* pool = nullptr;
  std::int64_t threads = 1;
  if (n > grain) {
    MutexLock lock(g_mutex);
    pool = PoolLocked();
    threads = g_num_threads;
  }
  if (pool == nullptr) {
    body(begin, end);
    return;
  }
  // Oversubscribe mildly for load balance; range boundaries depend only on
  // n/grain, never on the thread count, but even thread-dependent splits
  // would be bitwise-safe since ranges are disjoint.
  const std::int64_t max_tasks = std::min<std::int64_t>(threads * 4, (n + grain - 1) / grain);
  const std::int64_t num_tasks = std::max<std::int64_t>(1, max_tasks);
  if (num_tasks == 1) {
    body(begin, end);
    return;
  }
  // Round the step up to a whole cache line of floats so task boundaries in
  // flat element loops land on 64-byte lines — adjacent tasks then never
  // write the same line (false sharing). Row-indexed loops are unaffected
  // beyond a slightly coarser split.
  constexpr std::int64_t kStepAlign = 16;
  std::int64_t step = (n + num_tasks - 1) / num_tasks;
  if (step > kStepAlign) {
    step = (step + kStepAlign - 1) / kStepAlign * kStepAlign;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(num_tasks));
  for (std::int64_t lo = begin; lo < end; lo += step) {
    const std::int64_t hi = std::min(end, lo + step);
    tasks.push_back([lo, hi, &body] { body(lo, hi); });
  }
  // RunBatch shares the work with the calling thread, so a batch never costs
  // more than running it inline — oversubscribed thread counts on small hosts
  // stay at parity with --threads 1 instead of paying wake+wait latency.
  pool->RunBatch(std::move(tasks));
}

void ParallelChunks(std::int64_t num_chunks,
                    const std::function<void(std::int64_t)>& body) {
  if (num_chunks <= 0) {
    return;
  }
  ThreadPool* pool = nullptr;
  std::int64_t threads = 1;
  if (num_chunks > 1) {
    MutexLock lock(g_mutex);
    pool = PoolLocked();
    threads = g_num_threads;
  }
  if (pool == nullptr) {
    for (std::int64_t c = 0; c < num_chunks; ++c) {
      body(c);
    }
    return;
  }
  // Plans compile ~64 chunks per level; one pool task per chunk made the
  // queue handshake dominate at small sizes (the BENCH_kernels thread-scaling
  // regression). Batch contiguous chunk ranges into at most threads*2 tasks —
  // each chunk still runs whole, in ascending order within its task, so
  // results stay bitwise identical to the per-chunk schedule.
  const std::int64_t num_tasks =
      std::max<std::int64_t>(1, std::min<std::int64_t>(threads * 2, num_chunks));
  const std::int64_t step = (num_chunks + num_tasks - 1) / num_tasks;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(num_tasks));
  for (std::int64_t c_lo = 0; c_lo < num_chunks; c_lo += step) {
    const std::int64_t c_hi = std::min(num_chunks, c_lo + step);
    tasks.push_back([c_lo, c_hi, &body] {
      for (std::int64_t c = c_lo; c < c_hi; ++c) {
        body(c);
      }
    });
  }
  pool->RunBatch(std::move(tasks));
}

void ForEachSegmentChunk(std::span<const std::uint64_t> offsets,
                         std::span<const std::int64_t> chunks, std::int64_t total_work,
                         const std::function<void(std::int64_t, std::int64_t)>& body) {
  const std::int64_t num_segments =
      offsets.empty() ? 0 : static_cast<std::int64_t>(offsets.size()) - 1;
  if (num_segments <= 0) {
    return;
  }
  if (total_work < kMinParallelWork || NumThreads() <= 1) {
    body(0, num_segments);
    return;
  }
  std::vector<std::int64_t> local;
  if (chunks.empty()) {
    local = MakeSegmentChunks(offsets, kPlanChunkTarget);
    chunks = local;
  }
  ParallelChunks(static_cast<std::int64_t>(chunks.size()) - 1, [&](std::int64_t c) {
    const auto uc = static_cast<std::size_t>(c);
    body(chunks[uc], chunks[uc + 1]);
  });
}

}  // namespace exec
}  // namespace flexgraph
