// 256-bit AVX2 kernel variant. Built with -mavx2 -ffp-contract=off and
// deliberately never uses _mm256_fmadd_ps: fused multiply-add rounds once
// where mul+add rounds twice, which would break bitwise parity with the
// scalar and SSE2 variants.
#include "src/exec/simd_body.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace flexgraph {
namespace simd {
namespace {

#if defined(__AVX2__)

struct Vec256 {
  using Reg = __m256;
  static constexpr int64_t kWidth = 8;
  static Reg Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Reg Max(Reg a, Reg b) { return _mm256_max_ps(a, b); }  // a>b?a:b — b on ties/NaN
  static Reg Min(Reg a, Reg b) { return _mm256_min_ps(a, b); }  // a<b?a:b — b on ties/NaN
  static Reg Broadcast(float s) { return _mm256_set1_ps(s); }
  static Reg Zero() { return _mm256_setzero_ps(); }
  // acc + p in the lanes where a != 0 (NaN counts as nonzero), acc elsewhere.
  static Reg AddWhereNonzero(Reg acc, Reg a, Reg p) {
    return _mm256_blendv_ps(acc, _mm256_add_ps(acc, p), _mm256_cmp_ps(a, Zero(), _CMP_NEQ_UQ));
  }
};

const KernelTable kTable = detail::MakeTable<Vec256>(IsaLevel::kAvx2, "avx2");
const KernelTable* Table() { return &kTable; }

#else

const KernelTable* Table() { return GetScalarTable(); }

#endif

}  // namespace

const KernelTable* GetAvx2Table() { return Table(); }

}  // namespace simd
}  // namespace flexgraph
