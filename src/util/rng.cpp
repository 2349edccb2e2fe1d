#include "util/rng.hpp"

namespace gpclust::util {

namespace {
u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Xoshiro256::Xoshiro256(u64 seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

u64 Xoshiro256::next() {
  const u64 result = rotl(s_[1] * 5, 7) * 9;
  const u64 t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

u64 Xoshiro256::next_below(u64 bound) {
  GPCLUST_CHECK(bound > 0, "next_below requires a positive bound");
  // Lemire's multiply-shift rejection method: unbiased and division-free in
  // the common case.
  u64 x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  u64 low = static_cast<u64>(m);
  if (low < bound) {
    const u64 threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<u64>(m);
    }
  }
  return static_cast<u64>(m >> 64);
}

double Xoshiro256::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void Xoshiro256::jump() {
  static constexpr std::array<u64, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<u64, 4> acc = {0, 0, 0, 0};
  for (u64 word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (1ULL << b)) {
        for (int i = 0; i < 4; ++i) acc[static_cast<size_t>(i)] ^= s_[static_cast<size_t>(i)];
      }
      next();
    }
  }
  s_ = acc;
}

}  // namespace gpclust::util
