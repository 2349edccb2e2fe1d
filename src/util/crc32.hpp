#pragma once
// CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320) — the per-section
// checksum of the family-index snapshot format (DESIGN.md §10). Table
// driven, slicing-by-8 (eight bytes per step through eight 256-entry
// tables); the values are those of the classic byte-at-a-time loop and
// have well-known test vectors (crc32("123456789") == 0xCBF43926).

#include <cstddef>

#include "util/common.hpp"

namespace gpclust::util {

/// CRC of `size` bytes starting at `data`. `seed` allows incremental
/// computation: crc32(b, nb, crc32(a, na)) == crc32(concat(a, b)).
u32 crc32(const void* data, std::size_t size, u32 seed = 0);

/// CRC of concat(a, b) from crc_a = crc32(a), crc_b = crc32(b) and
/// len_b = |b| alone, without touching the bytes (zlib's crc32_combine:
/// shift crc_a by len_b zero bytes in GF(2), O(log len_b)).
u32 crc32_combine(u32 crc_a, u32 crc_b, std::size_t len_b);

}  // namespace gpclust::util
