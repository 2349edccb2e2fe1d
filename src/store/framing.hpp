#pragma once
// The flat-file framing shared by snapshots (snapshot.hpp) and deltas
// (delta.hpp): a 16-byte header (magic, version, section count), one
// 24-byte descriptor per section (id, CRC-32 of the payload, offset,
// size), then the payloads in id order, each padded with zeros to the
// next 8-byte boundary. Internal to the store library.

#include <array>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace gpclust::store::framing {

inline constexpr std::size_t kAlignment = 8;

struct Header {
  char magic[8];
  u32 version;
  u32 section_count;
};
static_assert(sizeof(Header) == 16);

struct SectionDesc {
  u32 id;
  u32 crc;
  u64 offset;      ///< from file start, kAlignment-aligned
  u64 size_bytes;  ///< payload bytes (before padding)
};
static_assert(sizeof(SectionDesc) == 24);

/// One section's in-memory bytes, in file order.
struct Payload {
  u32 id;
  const void* data;
  std::size_t size;
};

inline std::size_t aligned(std::size_t n) {
  return (n + kAlignment - 1) / kAlignment * kAlignment;
}

/// The complete canonical file: header, section table (each payload's
/// CRC computed once), then the zero-padded payloads.
std::vector<char> frame_bytes(const std::array<char, 8>& magic, u32 version,
                              std::span<const Payload> payloads);

/// CRC-32 of frame_bytes(...) without materializing it: the CRC of the
/// header + section table, then each payload's section CRC (read back
/// from the table) folded in with util::crc32_combine, then its padding
/// zeros. One pass over the
/// payload bytes, no allocation beyond the prefix.
u32 frame_crc(const std::array<char, 8>& magic, u32 version,
              std::span<const Payload> payloads);

/// Crash-safe publish of a whole file: the bytes go to a fresh temp file
/// in the target's directory, are fflush'ed and fsync'ed, the temp file
/// is closed (checked) and renamed over `path`, then the directory is
/// fsync'ed so the rename itself is durable. A reader (or a crash) sees
/// either the previous file or the complete new one, never a prefix. On
/// any failure the temp file is removed, `path` is untouched and
/// std::runtime_error names `what` and the failing step.
void publish_file(const std::vector<char>& bytes, const std::string& path,
                  const std::string& what);

/// The whole file in one read. Throws SnapshotIoError (prefixed with
/// `what`) when it cannot be opened or read in full.
std::vector<char> read_file(const std::string& path, const std::string& what);

}  // namespace gpclust::store::framing
