#pragma once
// Prime utilities for the min-wise hash family. The shingling permutation
// v -> (A*v + B) mod P requires P to be a prime larger than the universe
// of vertex ids (paper §III-B: "P is a big prime number").

#include "util/common.hpp"

namespace gpclust::util {

/// 2^61 - 1, a Mersenne prime large enough for any vertex/shingle universe
/// used in this library. Default modulus of the min-wise hash family.
inline constexpr u64 kMersenne61 = (1ULL << 61) - 1;

/// Deterministic Miller-Rabin, exact for all 64-bit inputs.
bool is_prime(u64 n);

/// Smallest prime >= n. Requires n <= kMersenne61 (always satisfiable).
u64 next_prime(u64 n);

/// (a * b) mod m without overflow for m < 2^63.
u64 mulmod(u64 a, u64 b, u64 m);

/// x mod kMersenne61 without a division: since 2^61 == 1 (mod 2^61 - 1),
/// folding the bits above 61 onto the low 61 leaves a value <= P + 7, and
/// one conditional subtract finishes the reduction.
inline u64 mod_mersenne61(u64 x) {
  const u64 r = (x & kMersenne61) + (x >> 61);
  return r >= kMersenne61 ? r - kMersenne61 : r;
}

/// (a * b) mod kMersenne61 for a, b < kMersenne61. The product is below
/// 2^122, so one fold of the 128-bit product leaves a value < 2P and one
/// conditional subtract finishes the reduction. Equals
/// mulmod(a, b, kMersenne61) without libgcc's 128-bit division.
inline u64 mulmod_mersenne61(u64 a, u64 b) {
  const __uint128_t x = static_cast<__uint128_t>(a) * b;
  const u64 r =
      (static_cast<u64>(x) & kMersenne61) + static_cast<u64>(x >> 61);
  return r >= kMersenne61 ? r - kMersenne61 : r;
}

/// (base ^ exp) mod m.
u64 powmod(u64 base, u64 exp, u64 m);

}  // namespace gpclust::util
