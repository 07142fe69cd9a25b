#pragma once

// Deterministic, stream-splittable pseudo-random number generation.
//
// Workload generators must produce identical reference streams for every
// architecture under test (the paper's methodology: same program, different
// memory system), so all randomness flows through SplitMix64/Xoshiro256**
// seeded from the MachineConfig.  Splitting by (seed, stream-id) gives each
// simulated process an independent, reproducible stream.

#include <cstdint>

namespace ascoma {

/// SplitMix64 step; used for seeding and cheap stateless hashing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of two values (for per-(seed,stream) derivation).
constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9E3779B97F4A7C15ull);
  return splitmix64(s);
}

/// Xoshiro256** — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0, std::uint64_t stream = 0) {
    std::uint64_t sm = mix64(seed, stream);
    for (auto& word : s_) word = splitmix64(sm);
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift (bound > 0).
  std::uint64_t below(std::uint64_t bound) {
    // 128-bit multiply keeps the bias negligible for simulation purposes.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace ascoma
