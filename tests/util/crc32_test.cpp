// CRC-32 (util/crc32.hpp): the slicing-by-8 loop against a bytewise
// reference, crc32_combine against the CRC of the concatenation, and the
// buffer-free snapshot CRC (store::snapshot_crc) against the CRC of the
// serialized bytes for every way a store comes to exist.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "seq/family_model.hpp"
#include "store/snapshot.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace gpclust::util {
namespace {

/// The textbook byte-at-a-time CRC-32 (reflected 0xEDB88320).
u32 reference_crc(const unsigned char* data, std::size_t size, u32 seed) {
  u32 c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t size, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<unsigned char> out(size);
  for (auto& b : out) b = static_cast<unsigned char>(rng.next());
  return out;
}

TEST(Crc32, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SlicedMatchesBytewiseOnShortLengthsAndOffsets) {
  const auto bytes = random_bytes(64 + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      for (const u32 seed : {0u, 0xdeadbeefu}) {
        EXPECT_EQ(crc32(bytes.data() + offset, len, seed),
                  reference_crc(bytes.data() + offset, len, seed))
            << "offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32, SlicedMatchesBytewiseOnLargeChainedBuffers) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t len = 1000 + rng.next() % 100000;
    const std::size_t offset = rng.next() % 8;
    const auto bytes = random_bytes(len + offset, 3 + trial);
    const unsigned char* data = bytes.data() + offset;
    const u32 expected = reference_crc(data, len, 0);
    EXPECT_EQ(crc32(data, len), expected) << len;
    // Chained in two uneven pieces through the seed.
    const std::size_t cut = rng.next() % len;
    EXPECT_EQ(crc32(data + cut, len - cut, crc32(data, cut)), expected);
  }
}

TEST(Crc32, CombineEqualsCrcOfConcatenation) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 16; ++trial) {
    const std::size_t len_a = trial == 0 ? 0 : rng.next() % 5000;
    const std::size_t len_b = trial == 1 ? 0 : rng.next() % 5000;
    const auto ab = random_bytes(len_a + len_b, 5 + trial);
    const u32 crc_a = crc32(ab.data(), len_a);
    const u32 crc_b = crc32(ab.data() + len_a, len_b);
    EXPECT_EQ(crc32_combine(crc_a, crc_b, len_b), crc32(ab.data(), ab.size()))
        << len_a << " + " << len_b;
  }
  // Empty b leaves a's CRC; empty a yields b's.
  const std::string b = "123456789";
  EXPECT_EQ(crc32_combine(0x12345678u, 0u, 0), 0x12345678u);
  EXPECT_EQ(crc32_combine(0u, crc32(b.data(), b.size()), b.size()),
            0xCBF43926u);
}

store::FamilyStore demo_store(u64 seed) {
  seq::FamilyModelConfig config;
  config.num_families = 6;
  config.min_members = 3;
  config.max_members = 8;
  config.num_background_orfs = 3;
  config.seed = seed;
  const auto mg = seq::generate_metagenome(config);
  return store::build_family_store(mg.sequences, mg.family);
}

u32 buffer_crc(const store::FamilyStore& s) {
  const std::vector<char> bytes = store::serialize_snapshot(s);
  return crc32(bytes.data(), bytes.size());
}

TEST(SnapshotCrc, EqualsCrcOfSerializedBytes) {
  const store::FamilyStore built = demo_store(77);
  EXPECT_EQ(store::snapshot_crc(built), buffer_crc(built));

  const store::FamilyStore loaded =
      store::deserialize_snapshot(store::serialize_snapshot(demo_store(78)));
  EXPECT_EQ(store::snapshot_crc(loaded), buffer_crc(loaded));

  const store::FamilyStore migrated = store::load_snapshot(
      std::string(GPCLUST_TEST_DATA_DIR) + "/family_index_v1.gpfi");
  EXPECT_EQ(store::snapshot_crc(migrated), buffer_crc(migrated));

  const store::FamilyStore empty = store::build_family_store({}, {});
  ASSERT_EQ(empty.num_families, 0u);
  EXPECT_EQ(store::snapshot_crc(empty), buffer_crc(empty));

  // Odd section sizes exercise the padding fold: one short sequence with
  // an odd-length id.
  const store::FamilyStore odd =
      store::build_family_store({{"abc", "MKTAYIA"}}, {0});
  EXPECT_EQ(store::snapshot_crc(odd), buffer_crc(odd));
}

}  // namespace
}  // namespace gpclust::util
