#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace gpclust::util {

namespace {

constexpr u32 kPolynomial = 0xEDB88320u;

/// kTables[0] is the classic byte table; kTables[j][b] is the CRC of byte
/// b followed by j zero bytes, so eight table lookups advance the CRC by
/// one 8-byte word (slicing-by-8).
constexpr std::array<std::array<u32, 256>, 8> make_tables() {
  std::array<std::array<u32, 256>, 8> tables{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? kPolynomial ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (u32 i = 0; i < 256; ++i) {
    for (std::size_t j = 1; j < 8; ++j) {
      const u32 prev = tables[j - 1][i];
      tables[j][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

// The word step folds the CRC into the low bytes of a little-endian load.
static_assert(std::endian::native == std::endian::little);

/// a(x) * b(x) mod P(x), bit-reflected (zlib's multmodp).
constexpr u32 multiply_mod_p(u32 a, u32 b) {
  u32 m = 1u << 31;
  u32 product = 0;
  for (;;) {
    if ((a & m) != 0) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) != 0 ? (b >> 1) ^ kPolynomial : b >> 1;
  }
  return product;
}

/// kPowers[k] = x^(2^k) mod P(x), bit-reflected.
constexpr std::array<u32, 32> make_powers() {
  std::array<u32, 32> powers{};
  powers[0] = 1u << 30;  // x^1
  for (std::size_t k = 1; k < 32; ++k) {
    powers[k] = multiply_mod_p(powers[k - 1], powers[k - 1]);
  }
  return powers;
}

constexpr auto kPowers = make_powers();

}  // namespace

u32 crc32(const void* data, std::size_t size, u32 seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  u32 c = seed ^ 0xFFFFFFFFu;
  // Byte-wise up to 8-byte alignment, then one little-endian word per step.
  for (; size > 0 && reinterpret_cast<std::uintptr_t>(bytes) % 8 != 0;
       --size) {
    c = kTables[0][(c ^ *bytes++) & 0xFFu] ^ (c >> 8);
  }
  for (; size >= 8; size -= 8, bytes += 8) {
    u64 word;
    std::memcpy(&word, bytes, sizeof(word));
    word ^= c;
    c = kTables[7][word & 0xFFu] ^ kTables[6][(word >> 8) & 0xFFu] ^
        kTables[5][(word >> 16) & 0xFFu] ^ kTables[4][(word >> 24) & 0xFFu] ^
        kTables[3][(word >> 32) & 0xFFu] ^ kTables[2][(word >> 40) & 0xFFu] ^
        kTables[1][(word >> 48) & 0xFFu] ^ kTables[0][word >> 56];
  }
  for (; size > 0; --size) {
    c = kTables[0][(c ^ *bytes++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

u32 crc32_combine(u32 crc_a, u32 crc_b, std::size_t len_b) {
  // crc(a ‖ b) = crc_a * x^(8 len_b) + crc_b (mod P): build x^(8 len_b)
  // from the squared powers of the bits of len_b.
  u32 shift = 1u << 31;  // x^0
  for (std::size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if ((len_b & 1u) != 0) shift = multiply_mod_p(kPowers[k % 32], shift);
  }
  return multiply_mod_p(shift, crc_a) ^ crc_b;
}

}  // namespace gpclust::util
