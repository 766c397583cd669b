#include "src/util/crc32.h"

#include <array>

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>
#endif

namespace flexgraph {

namespace {

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// Both paths below work on the raw CRC register: the caller complements on
// the way in and on the way out.
uint32_t UpdateBytewise(uint32_t reg, const unsigned char* bytes, std::size_t size) {
  const auto& table = Table();
  for (std::size_t i = 0; i < size; ++i) {
    reg = table[(reg ^ bytes[i]) & 0xFFu] ^ (reg >> 8);
  }
  return reg;
}

#if defined(__PCLMUL__) && defined(__SSE4_1__)

// Folds `size` bytes (a multiple of 16, at least 64) into `reg`, after Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009): four 128-bit lanes advance 64 bytes per step,
// collapse into one lane that takes the remaining 16-byte blocks, fold to
// 64 bits, and a Barrett reduction leaves the 32-bit register. The constants
// are the paper's bit-reflected ones for 0xEDB88320: k1..k4 fold across 64
// and 16 bytes, k5 folds 96 bits to 64, P' is the polynomial and mu' its
// Barrett quotient.
uint32_t UpdateFolded(uint32_t reg, const unsigned char* p, std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  // One fold step: multiplying x's two 64-bit halves by the constants in `k`
  // carries x forward by the fold distance, where it absorbs that block.
  const auto fold = [](__m128i x, __m128i k, __m128i next) {
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) {
    x1 = fold(x1, k3k4, load(p));
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

#endif

}  // namespace

uint32_t Crc32(const void* data, std::size_t size, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t reg = ~crc;
#if defined(__PCLMUL__) && defined(__SSE4_1__)
  if (size >= 64) {
    const std::size_t body = size & ~std::size_t{15};
    reg = UpdateFolded(reg, bytes, body);
    bytes += body;
    size -= body;
  }
#endif
  return ~UpdateBytewise(reg, bytes, size);
}

uint32_t Crc32Bytewise(const void* data, std::size_t size, uint32_t crc) {
  return ~UpdateBytewise(~crc, static_cast<const unsigned char*>(data), size);
}

}  // namespace flexgraph
