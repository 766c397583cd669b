// Runtime CPU ISA detection for the SIMD kernel dispatch (src/exec/simd.h).
//
// Levels are ordered by capability so numeric comparison answers "can this
// CPU run that variant". kSse2 doubles as the generic 128-bit slot: on
// x86-64 it is SSE2 (baseline, always available), on AArch64 it is NEON.
// The active level is chosen once at startup — highest supported, clamped by
// the FLEXGRAPH_ISA environment override — and every kernel call dispatches
// through the table compiled for that level (see simd.h).
#ifndef SRC_EXEC_CPU_FEATURES_H_
#define SRC_EXEC_CPU_FEATURES_H_

#include <string_view>

namespace flexgraph {
namespace simd {

enum class IsaLevel : int {
  kScalar = 0,  // portable C++ (still auto-vectorizable by the compiler)
  kSse2 = 1,    // 128-bit lanes: SSE2 on x86-64, NEON on AArch64
  kAvx2 = 2,    // 256-bit lanes
  kAvx512 = 3,  // 512-bit lanes (AVX-512F)
};

// "scalar" | "sse2" | "avx2" | "avx512".
const char* IsaName(IsaLevel level);

// Parses an IsaName (also accepts "neon" as an alias for the 128-bit slot).
// Returns false and leaves *out untouched on an unrecognized name.
bool ParseIsaName(std::string_view name, IsaLevel* out);

// Highest level the running CPU can execute (CPUID probe on x86, compile-time
// feature macros elsewhere). Cached after the first call; never affected by
// FLEXGRAPH_ISA.
IsaLevel DetectIsa();

// True when the running CPU can execute `level`.
bool IsaSupported(IsaLevel level);

}  // namespace simd
}  // namespace flexgraph

#endif  // SRC_EXEC_CPU_FEATURES_H_
