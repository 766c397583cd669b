// Deterministic, fast pseudo-random generator (splitmix64 seeding + xoshiro256**).
//
// Everything in FlexGraph that is stochastic — synthetic dataset generation,
// random walks in PinSage neighbor selection, parameter init, sampled run logs
// for the ADB cost model — takes an explicit Rng so experiments replay exactly.
#ifndef SRC_UTIL_RNG_H_
#define SRC_UTIL_RNG_H_

#include <cstdint>

namespace flexgraph {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    // splitmix64 expansion of the seed into the 4-word xoshiro state.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0. Exactly one draw.
  uint64_t NextBounded(uint64_t bound) { return NextU64() % bound; }

  // Advances the stream by n draws, as n NextU64 calls would.
  void Discard(uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      NextU64();
    }
  }

  uint32_t NextU32() { return static_cast<uint32_t>(NextU64() >> 32); }

  // Uniform float in [0, 1).
  float NextFloat() { return static_cast<float>(NextU64() >> 40) * (1.0f / 16777216.0f); }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0); }

  // Uniform float in [lo, hi).
  float NextUniform(float lo, float hi) { return lo + (hi - lo) * NextFloat(); }

  // Standard normal via Box–Muller (one value per call; the twin is discarded
  // to keep the generator state trivially replayable).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) {
      u1 = 1e-300;
    }
    return __builtin_sqrt(-2.0 * __builtin_log(u1)) * __builtin_cos(6.283185307179586 * u2);
  }

  // Raw xoshiro state, for transporting the generator across process
  // boundaries (the socket runtime's Prepare token ring): restoring the four
  // words resumes the exact stream, so a remote worker consumes randomness
  // bitwise-identically to an in-process one.
  void GetState(uint64_t out[4]) const {
    for (int i = 0; i < 4; ++i) {
      out[i] = state_[i];
    }
  }
  void SetState(const uint64_t in[4]) {
    for (int i = 0; i < 4; ++i) {
      state_[i] = in[i];
    }
  }

  friend bool operator==(const Rng& a, const Rng& b) {
    return a.state_[0] == b.state_[0] && a.state_[1] == b.state_[1] &&
           a.state_[2] == b.state_[2] && a.state_[3] == b.state_[3];
  }
  friend bool operator!=(const Rng& a, const Rng& b) { return !(a == b); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace flexgraph

#endif  // SRC_UTIL_RNG_H_
