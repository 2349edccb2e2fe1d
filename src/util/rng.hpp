#pragma once
// Deterministic, fast pseudo-random number generation.
//
// All randomized components of the library (min-wise hash families, graph
// generators, the sequence family model) draw from these generators so that
// a run is reproducible from a single 64-bit seed.

#include <array>
#include <cstdint>

#include "util/common.hpp"

namespace gpclust::util {

/// SplitMix64: used to seed other generators and for cheap one-shot mixing.
class SplitMix64 {
 public:
  explicit SplitMix64(u64 seed) : state_(seed) {}

  u64 next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

/// Stateless mix of a 64-bit value; used for shingle hashing. Inline: the
/// shingle hash calls it 2s + 1 times per emitted tuple.
inline u64 mix64(u64 x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Xoshiro256**: general-purpose generator for workload synthesis.
/// Satisfies the C++ UniformRandomBitGenerator requirements.
class Xoshiro256 {
 public:
  using result_type = u64;

  explicit Xoshiro256(u64 seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  u64 next();

  /// Uniform integer in [0, bound). Requires bound > 0.
  u64 next_below(u64 bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Jump ahead 2^128 steps; used to derive independent streams.
  void jump();

 private:
  std::array<u64, 4> s_;
};

}  // namespace gpclust::util
