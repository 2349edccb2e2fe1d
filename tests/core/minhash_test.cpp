#include "core/minhash.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hpp"

namespace gpclust::core {
namespace {

/// The generic formula the Mersenne fast path must reproduce bit for bit.
u64 generic_affine(u64 a, u64 b, u64 p, u64 v) {
  return (util::mulmod(a, v % p, p) + b) % p;
}

TEST(AffineHash, IsBijectiveOnSmallPrimeField) {
  const AffineHash h{.a = 3, .b = 5, .p = 17};
  std::set<u64> images;
  for (u64 v = 0; v < 17; ++v) images.insert(h(v));
  EXPECT_EQ(images.size(), 17u);
  for (u64 img : images) EXPECT_LT(img, 17u);
}

TEST(AffineHash, MatchesDirectFormula) {
  const AffineHash h{.a = 7, .b = 11, .p = 101};
  for (u64 v = 0; v < 50; ++v) EXPECT_EQ(h(v), (7 * v + 11) % 101);
}

TEST(AffineHash, LargeModulusNoOverflow) {
  const AffineHash h{.a = util::kMersenne61 - 1, .b = 12345,
                     .p = util::kMersenne61};
  // a = p-1 means h(v) = (p - v + b) mod p; check a couple of points.
  EXPECT_EQ(h(0), 12345u);
  EXPECT_EQ(h(1), 12344u);
  EXPECT_LT(h(999999999999ULL), util::kMersenne61);
}

TEST(AffineHash, MersenneFastPathMatchesGenericOnEdgeInputs) {
  constexpr u64 p = util::kMersenne61;
  for (u64 a : {u64{1}, p - 1}) {
    for (u64 b : {u64{0}, p - 1}) {
      const AffineHash h{.a = a, .b = b, .p = p};
      for (u64 v : {u64{0}, p - 1, p, ~u64{0}}) {
        EXPECT_EQ(h(v), generic_affine(a, b, p, v))
            << "a=" << a << " b=" << b << " v=" << v;
      }
    }
  }
}

TEST(AffineHash, MersenneFastPathMatchesGenericOnRandomInputs) {
  constexpr u64 p = util::kMersenne61;
  util::Xoshiro256 rng(61);
  for (int i = 0; i < 200000; ++i) {
    // Production coefficients (a in [1, P), b in [0, P)) and vertex ids...
    const u64 a = 1 + rng.next_below(p - 1);
    const u64 b = rng.next_below(p);
    const u64 v = rng.next() >> 32;
    EXPECT_EQ((AffineHash{.a = a, .b = b, .p = p}(v)),
              generic_affine(a, b, p, v));
    // ...and unreduced 64-bit values everywhere, where the generic sum
    // mulmod(...) + b may wrap.
    const u64 wa = rng.next(), wb = rng.next(), wv = rng.next();
    EXPECT_EQ((AffineHash{.a = wa, .b = wb, .p = p}(wv)),
              generic_affine(wa, wb, p, wv));
  }
}

TEST(AffineHash, MersenneReductionHelpersMatchDivision) {
  constexpr u64 p = util::kMersenne61;
  util::Xoshiro256 rng(7);
  for (u64 x : {u64{0}, p - 1, p, p + 1, 2 * p, ~u64{0}}) {
    EXPECT_EQ(util::mod_mersenne61(x), x % p) << x;
  }
  for (int i = 0; i < 100000; ++i) {
    const u64 x = rng.next();
    EXPECT_EQ(util::mod_mersenne61(x), x % p);
    const u64 a = rng.next_below(p), b = rng.next_below(p);
    EXPECT_EQ(util::mulmod_mersenne61(a, b), util::mulmod(a, b, p));
  }
  EXPECT_EQ(util::mulmod_mersenne61(p - 1, p - 1), 1u);  // (-1)^2
}

TEST(AffineHash, OtherPrimesTakeTheGenericPath) {
  const u64 p = util::next_prime(u64{1} << 40);
  ASSERT_NE(p, util::kMersenne61);
  util::Xoshiro256 rng(40);
  for (int i = 0; i < 50000; ++i) {
    const u64 a = 1 + rng.next_below(p - 1);
    const u64 b = rng.next_below(p);
    const u64 v = rng.next();
    EXPECT_EQ((AffineHash{.a = a, .b = b, .p = p}(v)),
              generic_affine(a, b, p, v));
  }
}

TEST(HashFamily, DeterministicForSeedAndLevel) {
  const HashFamily a(10, util::kMersenne61, 42, 1);
  const HashFamily b(10, util::kMersenne61, 42, 1);
  for (u32 j = 0; j < 10; ++j) {
    EXPECT_EQ(a[j].a, b[j].a);
    EXPECT_EQ(a[j].b, b[j].b);
  }
}

TEST(HashFamily, LevelsProduceDifferentFamilies) {
  const HashFamily l1(10, util::kMersenne61, 42, 1);
  const HashFamily l2(10, util::kMersenne61, 42, 2);
  int same = 0;
  for (u32 j = 0; j < 10; ++j) {
    if (l1[j].a == l2[j].a && l1[j].b == l2[j].b) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(HashFamily, MembersAreDistinct) {
  const HashFamily fam(200, util::kMersenne61, 7, 1);
  std::set<std::pair<u64, u64>> pairs;
  for (u32 j = 0; j < fam.size(); ++j) pairs.insert({fam[j].a, fam[j].b});
  EXPECT_EQ(pairs.size(), 200u);
}

TEST(HashFamily, CoefficientAIsNeverZero) {
  const HashFamily fam(500, 101, 3, 1);  // small modulus stresses a=0 risk
  for (u32 j = 0; j < fam.size(); ++j) {
    EXPECT_GE(fam[j].a, 1u);
    EXPECT_LT(fam[j].a, 101u);
    EXPECT_LT(fam[j].b, 101u);
  }
}

TEST(HashFamily, Validation) {
  EXPECT_THROW(HashFamily(0, 101, 1, 1), InvalidArgument);
  EXPECT_THROW(HashFamily(5, 1, 1, 1), InvalidArgument);
}

}  // namespace
}  // namespace gpclust::core
