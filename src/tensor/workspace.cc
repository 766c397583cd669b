#include "src/tensor/workspace.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "src/exec/parallel.h"
#include "src/exec/simd.h"
#include "src/obs/metrics.h"
#include "src/obs/prof.h"
#include "src/util/aligned_buffer.h"
#include "src/util/alloc_stats.h"
#include "src/util/check.h"

namespace flexgraph {
namespace {

// Floats per cache line; every bump allocation is rounded up to this so rows
// stay 64-byte aligned for the vectorized kernels.
constexpr std::size_t kAlignFloats = kCacheLineBytes / sizeof(float);
constexpr std::size_t kMinSlabFloats = 1 << 16;  // 256 KiB

thread_local Workspace* g_current = nullptr;

std::size_t RoundUp(std::size_t n) {
  return (n + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
}

}  // namespace

Workspace::~Workspace() {
  for (Slab& slab : slabs_) {
    std::free(slab.data);
  }
}

Workspace::Slab& Workspace::AddSlab(std::size_t min_floats) {
  std::size_t capacity = std::max(RoundUp(min_floats), kMinSlabFloats);
  // Grow at least geometrically so a recording epoch settles in O(log n)
  // slabs rather than one slab per allocation.
  if (!slabs_.empty()) {
    capacity = std::max(capacity, slabs_.back().capacity * 2);
  }
  Slab slab;
  slab.data = static_cast<float*>(std::aligned_alloc(kCacheLineBytes, capacity * sizeof(float)));
  if (slab.data == nullptr) {
    throw std::bad_alloc();
  }
  slab.capacity = capacity;
  slabs_.push_back(slab);
  reserved_bytes_ += capacity * sizeof(float);
  ++growth_count_;
  FLEX_COUNTER_ADD("exec.arena_grow", 1);
  FLEX_GAUGE_SET("exec.arena_reserved_bytes", static_cast<double>(reserved_bytes_));
  return slabs_.back();
}

void Workspace::Reserve(std::size_t bytes) {
  const std::size_t want_floats = (bytes + sizeof(float) - 1) / sizeof(float);
  std::size_t have = 0;
  for (const Slab& slab : slabs_) {
    have += slab.capacity;
  }
  if (have < want_floats) {
    AddSlab(want_floats - have);
  }
}

void Workspace::Reset() {
  for (Slab& slab : slabs_) {
    slab.used = 0;
  }
  active_ = 0;
  used_bytes_ = 0;
}

float* Workspace::AllocateFloats(std::size_t count) {
  const std::size_t need = RoundUp(count == 0 ? 1 : count);
  while (active_ < slabs_.size()) {
    Slab& slab = slabs_[active_];
    if (slab.capacity - slab.used >= need) {
      float* out = slab.data + slab.used;
      slab.used += need;
      used_bytes_ += need * sizeof(float);
      if (used_bytes_ > high_water_bytes_) {
        high_water_bytes_ = used_bytes_;
      }
      return out;
    }
    ++active_;
  }
  Slab& slab = AddSlab(need);
  active_ = slabs_.size() - 1;
  float* out = slab.data;
  slab.used = need;
  used_bytes_ += need * sizeof(float);
  if (used_bytes_ > high_water_bytes_) {
    high_water_bytes_ = used_bytes_;
  }
  return out;
}

WorkspaceScope::WorkspaceScope(Workspace* ws)
    : previous_(g_current), previous_counting_(allocstats::ScopedCountingActive()) {
  if (ws != nullptr) {
    g_current = ws;
    allocstats::SetScopedCounting(true);
  }
}

WorkspaceScope::~WorkspaceScope() {
  if (g_current != previous_) {
    // Publish arena stats as the scope that owns them closes.
    FLEX_GAUGE_SET("exec.arena_high_water_bytes",
                   static_cast<double>(g_current->high_water_bytes()));
    FLEX_GAUGE_SET("exec.arena_used_bytes", static_cast<double>(g_current->used_bytes()));
  }
  g_current = previous_;
  allocstats::SetScopedCounting(previous_counting_);
}

Workspace* CurrentWorkspace() { return g_current; }

Tensor WsTensor(int64_t rows, int64_t cols) {
  Tensor t = WsTensorUninit(rows, cols);
  float* p = t.data();
  const bool prof = simd::KernelProfilingEnabled();
  exec::ParallelFor(0, t.numel(), exec::kMinParallelWork, [&](int64_t lo, int64_t hi) {
    // Zero fills are pure stores: no reads, no FLOPs.
    obs::TimedKernelScope scope(obs::ProfKernel::kZeroFill, 0,
                                (hi - lo) * static_cast<int64_t>(sizeof(float)), 0, prof);
    std::memset(p + lo, 0, static_cast<std::size_t>(hi - lo) * sizeof(float));
  });
  return t;
}

Tensor WsTensorUninit(int64_t rows, int64_t cols) {
  FLEX_CHECK_GE(rows, 0);
  FLEX_CHECK_GE(cols, 0);
  Workspace* ws = g_current;
  if (ws == nullptr) {
    return Tensor::Uninitialized(rows, cols);
  }
  const auto count = static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  return Tensor::Borrowed(ws->AllocateFloats(count), rows, cols);
}

Tensor WsTensorCopy(const Tensor& src) {
  Tensor t = WsTensorUninit(src.rows(), src.cols());
  if (src.numel() > 0) {
    const int64_t bytes = src.numel() * static_cast<int64_t>(sizeof(float));
    obs::TimedKernelScope scope(obs::ProfKernel::kRowCopy, bytes, bytes, 0,
                                simd::KernelProfilingEnabled());
    std::memcpy(t.data(), src.data(), static_cast<std::size_t>(src.numel()) * sizeof(float));
  }
  return t;
}

}  // namespace flexgraph
