// Deterministic pseudo-random number generation for workload synthesis.
//
// We use xoshiro256** (public domain, Blackman & Vigna) seeded through
// splitmix64 so a single 64-bit seed fully determines every experiment.
// The per-draw methods are defined here so the generator's loop inlines
// them.
#pragma once

#include <array>
#include <cstdint>

namespace hymem {

/// splitmix64 step — used for seeding and as a cheap hash.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator, so it
/// plugs into <random> distributions, but the samplers below avoid <random>
/// to stay bit-reproducible across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
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
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound <= 1) return 0;
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = next();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next();
        m = static_cast<unsigned __int128>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with probability p (clamped to [0,1]). Draws nothing
  /// when p is outside (0, 1).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  /// Creates an independent stream (splits the current state).
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

/// Geometric number of extra repetitions with continuation probability p
/// (k >= 0 with P(k) = (1-p) p^k; p >= 1 counts as 0.999999). Used for
/// burst lengths; log(p) is taken once, not per draw.
class GeometricSampler {
 public:
  explicit GeometricSampler(double p);

  /// One draw of k from one next_double(); none when p <= 0.
  std::uint64_t sample(Rng& rng) const;

 private:
  bool never_;  ///< p <= 0: always 0, and no draw.
  double log_p_;
};

}  // namespace hymem
