// 512-bit AVX-512F kernel variant (the paper's §4.3 vertex-reduce fast
// path). Requires only AVX-512F — loads, stores, add, mul, fmadd, max,
// min, broadcast, compare-to-mask. Built with -ffp-contract=off, and
// _mm512_fmadd_ps appears only as Fma (the chains the float contract
// spells as std::fma), so results match the narrower variants bitwise.
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
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  static Reg Max(Reg a, Reg b) { return _mm512_max_ps(a, b); }  // a>b?a:b — b on ties/NaN
  static Reg Min(Reg a, Reg b) { return _mm512_min_ps(a, b); }  // a<b?a:b — b on ties/NaN
  static Reg Broadcast(float s) { return _mm512_set1_ps(s); }
  static Reg Zero() { return _mm512_setzero_ps(); }
  // acc + p in the lanes where a != 0 (NaN counts as nonzero), acc elsewhere.
  static Reg AddWhereNonzero(Reg acc, Reg a, Reg p) {
    return _mm512_mask_add_ps(acc, _mm512_cmp_ps_mask(a, Zero(), _CMP_NEQ_UQ), acc, p);
  }
  // r[q] lane l ↔ r[l] lane q. Within each 128-bit quarter, unpack and
  // shuffle gather column 4L + q of rows 4g .. 4g+3 into quarter L of
  // u[4g + q]; two rounds of shuffle_f32x4 then collect quarter L of
  // u[q], u[4 + q], u[8 + q], u[12 + q] into r[4L + q]. (Straight-line
  // calls with constant arguments, so every index folds and the registers
  // never spill to an array.)
  static void Transpose(Reg* r) {
    Reg u[16];
    const auto rows4 = [&](int g) {
      const Reg t0 = _mm512_unpacklo_ps(r[g + 0], r[g + 1]);
      const Reg t1 = _mm512_unpackhi_ps(r[g + 0], r[g + 1]);
      const Reg t2 = _mm512_unpacklo_ps(r[g + 2], r[g + 3]);
      const Reg t3 = _mm512_unpackhi_ps(r[g + 2], r[g + 3]);
      u[g + 0] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      u[g + 1] = _mm512_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      u[g + 2] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      u[g + 3] = _mm512_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    };
    const auto column = [&](int q) {
      // Quarters {0, 2} and {1, 3} of rows 0-7, then of rows 8-15.
      const Reg lo02 = _mm512_shuffle_f32x4(u[q], u[4 + q], 0x88);
      const Reg lo13 = _mm512_shuffle_f32x4(u[q], u[4 + q], 0xDD);
      const Reg hi02 = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0x88);
      const Reg hi13 = _mm512_shuffle_f32x4(u[8 + q], u[12 + q], 0xDD);
      r[q] = _mm512_shuffle_f32x4(lo02, hi02, 0x88);
      r[8 + q] = _mm512_shuffle_f32x4(lo02, hi02, 0xDD);
      r[4 + q] = _mm512_shuffle_f32x4(lo13, hi13, 0x88);
      r[12 + q] = _mm512_shuffle_f32x4(lo13, hi13, 0xDD);
    };
    rows4(0);
    rows4(4);
    rows4(8);
    rows4(12);
    column(0);
    column(1);
    column(2);
    column(3);
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
