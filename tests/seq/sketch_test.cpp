#include "seq/sketch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/prime.hpp"
#include "util/rng.hpp"

namespace gpclust::seq {
namespace {

constexpr u64 kP = util::kMersenne61;

/// The generic-modulus formula SketchHashes::apply reduces by Mersenne
/// folding; the committed snapshot fixtures pin its values.
u64 reference_apply(u64 a, u64 b, u64 code) {
  return (util::mulmod(a, code % kP, kP) + b) % kP;
}

TEST(SketchHashes, ApplyEqualsGenericModularFormula) {
  // The <A_j, B_j> derivation the snapshot fixtures pin (seq/sketch.hpp).
  const u64 seed = 0x51476e5ull;
  const SketchHashes hashes(64, seed);
  util::SplitMix64 sm(seed ^ 0x5167a55e5ull);
  util::Xoshiro256 rng(17);
  std::vector<u64> codes = {0,      1,          kP - 1,     kP,     kP + 1,
                            2 * kP, 2 * kP + 5, ~0ull - 1,  ~0ull,  1ull << 61,
                            1ull << 62,         1ull << 63, 0x5167a55e5ull};
  for (int i = 0; i < 2000; ++i) codes.push_back(rng.next());
  for (std::size_t j = 0; j < hashes.size(); ++j) {
    const u64 a = 1 + sm.next() % (kP - 1);
    const u64 b = sm.next() % kP;
    for (u64 code : codes) {
      EXPECT_EQ(hashes.apply(j, code), reference_apply(a, b, code))
          << "j=" << j << " code=" << code;
    }
  }
}

TEST(SketchHashes, SketchTakesTheMinimumPerSlot) {
  const SketchHashes hashes(8, 3);
  const std::vector<u64> codes = {5, 17, kP - 1, ~0ull};
  std::vector<u64> out(hashes.size());
  hashes.sketch(codes, out);
  for (std::size_t j = 0; j < hashes.size(); ++j) {
    u64 expected = kEmptySketchSlot;
    for (u64 code : codes) expected = std::min(expected, hashes.apply(j, code));
    EXPECT_EQ(out[j], expected);
  }
  hashes.sketch({}, out);
  for (u64 slot : out) EXPECT_EQ(slot, kEmptySketchSlot);
}

}  // namespace
}  // namespace gpclust::seq
