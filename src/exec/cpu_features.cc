#include "src/exec/cpu_features.h"

namespace flexgraph {
namespace simd {

const char* IsaName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kSse2:
      return "sse2";
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

bool ParseIsaName(std::string_view name, IsaLevel* out) {
  if (name == "scalar") {
    *out = IsaLevel::kScalar;
    return true;
  }
  if (name == "sse2" || name == "neon") {
    *out = IsaLevel::kSse2;
    return true;
  }
  if (name == "avx2") {
    *out = IsaLevel::kAvx2;
    return true;
  }
  if (name == "avx512") {
    *out = IsaLevel::kAvx512;
    return true;
  }
  return false;
}

namespace {

IsaLevel ProbeIsa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  // The AVX-512 kernels use 512-bit float loads/adds/muls/fmadds/max/min
  // only, all AVX-512F; BW/DQ/VL are not required by the variant TU.
  if (__builtin_cpu_supports("avx512f")) {
    return IsaLevel::kAvx512;
  }
  // The AVX2 table's Fma is _mm256_fmadd_ps, and its TU builds with -mfma.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return IsaLevel::kAvx2;
  }
  // SSE2 is part of the x86-64 baseline; 32-bit x86 still probes it.
  if (__builtin_cpu_supports("sse2")) {
    return IsaLevel::kSse2;
  }
  return IsaLevel::kScalar;
#elif defined(__ARM_NEON) || defined(__aarch64__)
  return IsaLevel::kSse2;  // the 128-bit slot is NEON on ARM
#else
  return IsaLevel::kScalar;
#endif
}

}  // namespace

IsaLevel DetectIsa() {
  static const IsaLevel detected = ProbeIsa();
  return detected;
}

bool IsaSupported(IsaLevel level) { return static_cast<int>(level) <= static_cast<int>(DetectIsa()); }

}  // namespace simd
}  // namespace flexgraph
