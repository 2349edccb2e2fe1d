#pragma once
// The min-wise independent permutation family of Broder et al. [4], as
// instantiated by the paper (§III-B): a fixed set of c random pairs
// <A_j, B_j> defines bijections v -> (A_j * v + B_j) mod P over the id
// universe [0, P). Applying hash j to an adjacency list Gamma(u) yields a
// random permutation whose s smallest images identify a shingle.

#include <vector>

#include "util/common.hpp"
#include "util/prime.hpp"

namespace gpclust::core {

/// One affine permutation v -> (A*v + B) mod P.
struct AffineHash {
  u64 a = 1;
  u64 b = 0;
  u64 p = util::kMersenne61;

  /// Runs for every member of every trial, so the default modulus — the
  /// one every production path uses — reduces inline by Mersenne folding.
  /// Both branches compute (mulmod(a, v mod P, P) + B) mod P bit for bit,
  /// including the 64-bit wrap of the sum when B is not reduced.
  u64 operator()(u64 v) const {
    if (p == util::kMersenne61) {
      const u64 product = util::mulmod_mersenne61(util::mod_mersenne61(a),
                                                  util::mod_mersenne61(v));
      return util::mod_mersenne61(product + b);
    }
    return (util::mulmod(a, v % p, p) + b) % p;
  }
};

/// The fixed set {<A_j, B_j> | j in [0, c)} for one shingling level.
/// Deterministically derived from (seed, level) so the serial and the
/// device implementations share identical permutations.
class HashFamily {
 public:
  HashFamily(u32 count, u64 prime, u64 seed, u32 level);

  u32 size() const { return static_cast<u32>(hashes_.size()); }
  const AffineHash& operator[](u32 j) const { return hashes_[j]; }

 private:
  std::vector<AffineHash> hashes_;
};

}  // namespace gpclust::core
