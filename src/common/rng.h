// Deterministic random number generation.
//
// Every stochastic component (loss models, fountain coefficient vectors,
// workload generators) draws from an explicitly seeded Rng so that a whole
// simulation is reproducible from a single 64-bit seed. The generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64; it is fast,
// passes BigCrush, and — unlike std::mt19937 — has a portable, documented
// stream across standard-library implementations.
#pragma once

#include <bit>
#include <cstdint>

namespace fmtcp {

/// xoshiro256** pseudo-random generator with convenience distributions.
///
/// Not thread-safe; give each concurrent component its own instance (use
/// `fork()` to derive decorrelated child streams).
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output. Inline: block content and coefficient
  /// vectors draw one output per 8 bytes or 64 bits.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [0, bound) using Lemire's unbiased method.
  /// `bound` must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponentially distributed double with the given mean (> 0).
  double exponential(double mean);

  /// A single uniformly random bit.
  bool next_bit();

  /// Derives an independent child generator (for per-component streams).
  Rng fork();

 private:
  std::uint64_t s_[4];
};

}  // namespace fmtcp
