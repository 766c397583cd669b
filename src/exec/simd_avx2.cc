// 256-bit AVX2 kernel variant. Built with -mavx2 -mfma -ffp-contract=off:
// a fused multiply-add rounds once where mul+add rounds twice, so the
// compiler never contracts a pair, and _mm256_fmadd_ps appears only as
// Fma, for the chains the float contract spells as std::fma. The table is
// selected only on CPUs that report both AVX2 and FMA.
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
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  static Reg Max(Reg a, Reg b) { return _mm256_max_ps(a, b); }  // a>b?a:b — b on ties/NaN
  static Reg Min(Reg a, Reg b) { return _mm256_min_ps(a, b); }  // a<b?a:b — b on ties/NaN
  static Reg Broadcast(float s) { return _mm256_set1_ps(s); }
  static Reg Zero() { return _mm256_setzero_ps(); }
  // acc + p in the lanes where a != 0 (NaN counts as nonzero), acc elsewhere.
  static Reg AddWhereNonzero(Reg acc, Reg a, Reg p) {
    return _mm256_blendv_ps(acc, _mm256_add_ps(acc, p), _mm256_cmp_ps(a, Zero(), _CMP_NEQ_UQ));
  }
  // r[q] lane l ↔ r[l] lane q. Within each 128-bit half, unpack and shuffle
  // gather column c of rows 4h .. 4h+3 (u[c % 4] for half c / 4 of rows
  // 0-3, u[4 + c % 4] of rows 4-7); permute2f128 joins the two row halves.
  // (Straight-line calls with constant arguments, so every index folds and
  // the registers never spill to an array.)
  static void Transpose(Reg* r) {
    Reg u[8];
    const auto rows4 = [&](int h) {
      const Reg t0 = _mm256_unpacklo_ps(r[h + 0], r[h + 1]);
      const Reg t1 = _mm256_unpackhi_ps(r[h + 0], r[h + 1]);
      const Reg t2 = _mm256_unpacklo_ps(r[h + 2], r[h + 3]);
      const Reg t3 = _mm256_unpackhi_ps(r[h + 2], r[h + 3]);
      u[h + 0] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      u[h + 1] = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      u[h + 2] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      u[h + 3] = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    };
    const auto column = [&](int q) {
      r[q] = _mm256_permute2f128_ps(u[q], u[4 + q], 0x20);
      r[4 + q] = _mm256_permute2f128_ps(u[q], u[4 + q], 0x31);
    };
    rows4(0);
    rows4(4);
    column(0);
    column(1);
    column(2);
    column(3);
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
