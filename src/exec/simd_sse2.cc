// 128-bit kernel variant: SSE2 on x86 (baseline for x86-64), NEON on
// AArch64. Compiled with -ffp-contract=off; SSE2 has no FMA instruction and
// the NEON path spells out vmulq + vaddq, so multiply-add pairs stay
// unfused and match every other variant bitwise. Fma, the one fused op,
// rounds once: per-lane std::fma on SSE2, vfmaq_f32 on NEON.
#include <cmath>

#include "src/exec/simd_body.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace flexgraph {
namespace simd {
namespace {

#if defined(__SSE2__)

struct Vec128 {
  using Reg = __m128;
  static constexpr int64_t kWidth = 4;
  static Reg Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm_storeu_ps(p, v); }
  static Reg Add(Reg a, Reg b) { return _mm_add_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm_mul_ps(a, b); }
  static Reg Fma(Reg a, Reg b, Reg c) {
    alignas(16) float la[4];
    alignas(16) float lb[4];
    alignas(16) float lc[4];
    _mm_store_ps(la, a);
    _mm_store_ps(lb, b);
    _mm_store_ps(lc, c);
    for (int l = 0; l < 4; ++l) {
      lc[l] = std::fma(la[l], lb[l], lc[l]);
    }
    return _mm_load_ps(lc);
  }
  static Reg Max(Reg a, Reg b) { return _mm_max_ps(a, b); }  // a>b?a:b — b on ties/NaN
  static Reg Min(Reg a, Reg b) { return _mm_min_ps(a, b); }  // a<b?a:b — b on ties/NaN
  static Reg Broadcast(float s) { return _mm_set1_ps(s); }
  static Reg Zero() { return _mm_setzero_ps(); }
  // acc + p in the lanes where a != 0 (cmpneqps is true on NaN), acc
  // elsewhere; SSE2 has no blendv, so the select is and/andnot/or.
  static Reg AddWhereNonzero(Reg acc, Reg a, Reg p) {
    const Reg keep = _mm_cmpneq_ps(a, Zero());
    return _mm_or_ps(_mm_and_ps(keep, _mm_add_ps(acc, p)), _mm_andnot_ps(keep, acc));
  }
  // r[q] lane l ↔ r[l] lane q.
  static void Transpose(Reg* r) { _MM_TRANSPOSE4_PS(r[0], r[1], r[2], r[3]); }
};

const KernelTable kTable = detail::MakeTable<Vec128>(IsaLevel::kSse2, "sse2");
const KernelTable* Table() { return &kTable; }

#elif defined(__ARM_NEON) || defined(__aarch64__)

struct Vec128 {
  using Reg = float32x4_t;
  static constexpr int64_t kWidth = 4;
  static Reg Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Reg v) { vst1q_f32(p, v); }
  static Reg Add(Reg a, Reg b) { return vaddq_f32(a, b); }
  static Reg Mul(Reg a, Reg b) { return vmulq_f32(a, b); }
  static Reg Fma(Reg a, Reg b, Reg c) { return vfmaq_f32(c, a, b); }
  // vbslq selects a where a > b, else b — matches the scalar ternary for
  // NaN/±0 exactly (NEON vmaxq propagates NaN differently, so avoid it).
  static Reg Max(Reg a, Reg b) { return vbslq_f32(vcgtq_f32(a, b), a, b); }
  static Reg Min(Reg a, Reg b) { return vbslq_f32(vcltq_f32(a, b), a, b); }
  static Reg Broadcast(float s) { return vdupq_n_f32(s); }
  static Reg Zero() { return vdupq_n_f32(0.0f); }
  // acc where a == 0 (false on NaN, so NaN counts as nonzero), acc + p
  // elsewhere.
  static Reg AddWhereNonzero(Reg acc, Reg a, Reg p) {
    return vbslq_f32(vceqq_f32(a, Zero()), acc, vaddq_f32(acc, p));
  }
  // r[q] lane l ↔ r[l] lane q: trn pairs rows 0/1 and 2/3, then the 64-bit
  // halves recombine.
  static void Transpose(Reg* r) {
    const float32x4x2_t t01 = vtrnq_f32(r[0], r[1]);
    const float32x4x2_t t23 = vtrnq_f32(r[2], r[3]);
    r[0] = vcombine_f32(vget_low_f32(t01.val[0]), vget_low_f32(t23.val[0]));
    r[1] = vcombine_f32(vget_low_f32(t01.val[1]), vget_low_f32(t23.val[1]));
    r[2] = vcombine_f32(vget_high_f32(t01.val[0]), vget_high_f32(t23.val[0]));
    r[3] = vcombine_f32(vget_high_f32(t01.val[1]), vget_high_f32(t23.val[1]));
  }
};

const KernelTable kTable = detail::MakeTable<Vec128>(IsaLevel::kSse2, "neon");
const KernelTable* Table() { return &kTable; }

#else

// No 128-bit unit on this architecture: alias the scalar table so SetIsa
// reports the variant as unavailable (level stays kScalar).
const KernelTable* Table() { return GetScalarTable(); }

#endif

}  // namespace

const KernelTable* GetSse2Table() { return Table(); }

}  // namespace simd
}  // namespace flexgraph
