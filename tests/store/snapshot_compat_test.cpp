// Snapshot forward/backward compatibility (DESIGN.md §10): a checked-in
// version-1 fixture — written by the pre-signature builder over a pinned
// synthetic workload — must keep loading, serving and migrating as the
// format moves forward. Guards the v2 signature-section change: the v1
// read path reconstructs signatures on load with the default parameters,
// so a migrated store is byte-identical to a fresh build of the same
// inputs and serves bit-identical answers through both seed indexes.
//
// The fixture (tests/store/data/family_index_v1.gpfi) was generated
// BEFORE the v2 format change with build_family_store defaults over
// generate_metagenome({num_families=6, min_members=3, max_members=8,
// num_background_orfs=3, seed=77}). Regenerating it at the current
// version would defeat the test — the version pin below catches that.

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "seq/family_model.hpp"
#include "serve/bucket_index.hpp"
#include "serve/family_index.hpp"
#include "store/snapshot.hpp"
#include "util/crc32.hpp"

namespace gpclust::store {
namespace {

std::string fixture_path() {
  return std::string(GPCLUST_TEST_DATA_DIR) + "/family_index_v1.gpfi";
}

FamilyStore fresh_build() {
  seq::FamilyModelConfig config;
  config.num_families = 6;
  config.min_members = 3;
  config.max_members = 8;
  config.num_background_orfs = 3;
  config.seed = 77;
  const auto mg = seq::generate_metagenome(config);
  return build_family_store(mg.sequences, mg.family);
}

TEST(SnapshotCompat, FixtureIsStillAtThePreviousFormatVersion) {
  std::ifstream in(fixture_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << fixture_path();
  std::vector<char> head(16);
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  ASSERT_EQ(in.gcount(), 16);
  EXPECT_EQ(std::string(head.data(), 8), "GPCLFIDX");
  // Version field (u32 LE at offset 8) must stay 1: the fixture is only a
  // compatibility witness while it predates the current format.
  EXPECT_EQ(static_cast<unsigned char>(head[8]), 1u);
}

TEST(SnapshotCompat, V1FixtureLoadsAndEqualsAFreshBuild) {
  const FamilyStore migrated = load_snapshot(fixture_path());
  const FamilyStore fresh = fresh_build();
  // On-load signature reconstruction must land exactly where the current
  // builder does — field-for-field, including the signature block.
  EXPECT_EQ(migrated.sig_num_hashes, kDefaultSignatureHashes);
  EXPECT_EQ(migrated.sig_seed, kDefaultSignatureSeed);
  EXPECT_EQ(migrated, fresh);
}

TEST(SnapshotCompat, V1MigratesToTheCurrentFormatByteIdentically) {
  const FamilyStore migrated = load_snapshot(fixture_path());
  const std::vector<char> upgraded = serialize_snapshot(migrated);
  EXPECT_EQ(upgraded, serialize_snapshot(fresh_build()));
  // And the upgraded bytes are a stable fixed point of the current format.
  EXPECT_EQ(serialize_snapshot(deserialize_snapshot(upgraded)), upgraded);
}

TEST(SnapshotCompat, V1MigrationBytesArePinned) {
  // The migration reconstructs the signature block on load, so the two
  // tests above compare the current sketch kernel against itself. The
  // upgraded bytes recorded from the division-based kernel (generic
  // mulmod plus 64-bit %) pin the sketch derivation itself: any change to
  // SketchHashes::apply that moves a signature shows up here.
  const std::vector<char> upgraded =
      serialize_snapshot(load_snapshot(fixture_path()));
  EXPECT_EQ(upgraded.size(), 39784u);
  EXPECT_EQ(util::crc32(upgraded.data(), upgraded.size()), 0x9c47a912u);
}

TEST(SnapshotCompat, V1FixtureServesIdenticallyToAFreshBuild) {
  const FamilyStore migrated = load_snapshot(fixture_path());
  const FamilyStore fresh = fresh_build();
  const serve::FamilyIndex old_index(migrated);
  const serve::FamilyIndex new_index(fresh);
  const serve::BucketIndex old_buckets(migrated, {});
  const serve::BucketIndex new_buckets(fresh, {});
  serve::ClassifyScratch a;
  serve::ClassifyScratch b;
  for (std::size_t i = 0; i < fresh.num_sequences(); ++i) {
    const std::string q(fresh.sequence(i));
    EXPECT_EQ(old_index.classify(q, {}, a), new_index.classify(q, {}, b))
        << q;
    EXPECT_EQ(old_index.classify(q, {}, a, old_buckets),
              new_index.classify(q, {}, b, new_buckets))
        << q;
  }
}

}  // namespace
}  // namespace gpclust::store
