// 512-bit AVX-512F kernel variant (the paper's §4.3 vertex-reduce fast
// path). Requires only AVX-512F — loads, stores, add, mul, max, min,
// broadcast, compare-to-mask. Built with -ffp-contract=off and no FMA
// intrinsics so results match the narrower variants bitwise.
#include "src/exec/simd_body.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace flexgraph {
namespace simd {
namespace {

#if defined(__AVX512F__)

struct Vec512 {
  using Reg = __m512;
  static constexpr int64_t kWidth = 16;
  static Reg Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static Reg Add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm512_mul_ps(a, b); }
  static Reg Max(Reg a, Reg b) { return _mm512_max_ps(a, b); }  // a>b?a:b — b on ties/NaN
  static Reg Min(Reg a, Reg b) { return _mm512_min_ps(a, b); }  // a<b?a:b — b on ties/NaN
  static Reg Broadcast(float s) { return _mm512_set1_ps(s); }
  static Reg Zero() { return _mm512_setzero_ps(); }
  // acc + p in the lanes where a != 0 (NaN counts as nonzero), acc elsewhere.
  static Reg AddWhereNonzero(Reg acc, Reg a, Reg p) {
    return _mm512_mask_add_ps(acc, _mm512_cmp_ps_mask(a, Zero(), _CMP_NEQ_UQ), acc, p);
  }
};

const KernelTable kTable = detail::MakeTable<Vec512>(IsaLevel::kAvx512, "avx512");
const KernelTable* Table() { return &kTable; }

#else

const KernelTable* Table() { return GetScalarTable(); }

#endif

}  // namespace

const KernelTable* GetAvx512Table() { return Table(); }

}  // namespace simd
}  // namespace flexgraph
