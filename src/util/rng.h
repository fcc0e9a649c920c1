// Deterministic pseudo-random number generation (xoshiro256**).
//
// All data generators and adaptive explore/exploit policies draw from this
// RNG so runs are reproducible given a seed.
#pragma once

#include <cstdint>

namespace avm {

/// xoshiro256** by Blackman & Vigna; fast, high-quality, deterministic.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the 4-word state.
    uint64_t x = seed;
    for (auto& w : s_) {
      x += 0x9e3779b97f4a7c15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound).
  uint64_t NextBounded(uint64_t bound) {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free approximation is fine here.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  /// Uniform in [lo, hi] inclusive.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace avm
