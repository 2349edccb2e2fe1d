#include "store/framing.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "store/snapshot.hpp"
#include "util/crc32.hpp"

namespace gpclust::store::framing {

namespace {

/// Header + section table + zero padding up to the first payload, with
/// every payload's CRC computed once here.
std::vector<char> frame_prefix(const std::array<char, 8>& magic, u32 version,
                               std::span<const Payload> payloads) {
  const std::size_t table_end =
      sizeof(Header) + payloads.size() * sizeof(SectionDesc);
  // Zero-initialized: the padding after the table is deterministic.
  std::vector<char> out(aligned(table_end), 0);
  Header header{};
  std::memcpy(header.magic, magic.data(), magic.size());
  header.version = version;
  header.section_count = static_cast<u32>(payloads.size());
  std::memcpy(out.data(), &header, sizeof(header));
  std::size_t offset = out.size();
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const Payload& p = payloads[i];
    const SectionDesc desc{p.id, util::crc32(p.data, p.size),
                           static_cast<u64>(offset), static_cast<u64>(p.size)};
    std::memcpy(out.data() + sizeof(Header) + i * sizeof(SectionDesc), &desc,
                sizeof(desc));
    offset += aligned(p.size);
  }
  return out;
}

}  // namespace

std::vector<char> frame_bytes(const std::array<char, 8>& magic, u32 version,
                              std::span<const Payload> payloads) {
  std::vector<char> out = frame_prefix(magic, version, payloads);
  std::size_t total = out.size();
  for (const Payload& p : payloads) total += aligned(p.size);
  out.resize(total, 0);
  std::size_t offset = aligned(sizeof(Header) +
                               payloads.size() * sizeof(SectionDesc));
  for (const Payload& p : payloads) {
    if (p.size > 0) std::memcpy(out.data() + offset, p.data, p.size);
    offset += aligned(p.size);
  }
  return out;
}

u32 frame_crc(const std::array<char, 8>& magic, u32 version,
              std::span<const Payload> payloads) {
  const std::vector<char> prefix = frame_prefix(magic, version, payloads);
  u32 crc = util::crc32(prefix.data(), prefix.size());
  constexpr char kZeros[kAlignment] = {};
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    SectionDesc desc;
    std::memcpy(&desc, prefix.data() + sizeof(Header) + i * sizeof(SectionDesc),
                sizeof(desc));
    crc = util::crc32_combine(crc, desc.crc, desc.size_bytes);
    crc = util::crc32(kZeros, aligned(desc.size_bytes) - desc.size_bytes, crc);
  }
  return crc;
}

void publish_file(const std::vector<char>& bytes, const std::string& path,
                  const std::string& what) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  std::string temp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(temp.data());
  if (fd < 0) {
    throw std::runtime_error("cannot create " + what + " temp file for " +
                             path + ": " + std::strerror(errno));
  }
  // mkstemp creates 0600; published files are world-readable like fopen's.
  ::fchmod(fd, 0644);
  auto fail = [&](const std::string& step) {
    const std::string reason = std::strerror(errno);
    ::unlink(temp.c_str());
    throw std::runtime_error(step + " " + what + " " + path + ": " + reason);
  };
  std::FILE* f = ::fdopen(fd, "wb");
  if (f == nullptr) {
    ::close(fd);
    fail("cannot open");
  }
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !written) fail("short write to");
  if (std::rename(temp.c_str(), path.c_str()) != 0) fail("cannot publish");
  // Make the rename durable; a directory that cannot be opened or synced
  // (some filesystems) leaves the already-complete file in place.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

std::vector<char> read_file(const std::string& path, const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SnapshotIoError(what + ": cannot open " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(size > 0 ? static_cast<std::size_t>(size) : 0);
  const std::size_t got = bytes.empty()
                              ? 0
                              : std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) {
    throw SnapshotIoError(what + ": short read from " + path);
  }
  return bytes;
}

}  // namespace gpclust::store::framing
