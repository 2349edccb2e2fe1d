// Versioned snapshot deltas (store/delta.hpp): build/apply byte-exactness,
// the serialized format's self-validation (truncation, bit flips, version
// skew, wrong magic), chain-order enforcement via base CRCs, and the
// committed on-disk fixture that pins the version-1 delta format.
//
// The fixture (tests/store/data/family_delta_v1.gpfd) was generated with
// build_snapshot_delta over the SAME pinned workload as the v1 snapshot
// fixture (generate_metagenome({num_families=6, min_members=3,
// max_members=8, num_background_orfs=3, seed=77})): base = the store over
// the first half of the sequences, next = the store over all of them,
// chain_index = 1. Regenerating it after a format change would defeat the
// pin — the version assertion below catches that.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "seq/family_model.hpp"
#include "store/delta.hpp"

namespace gpclust::store {
namespace {

struct Workload {
  seq::SequenceSet sequences;
  std::vector<u32> family;
};

Workload pinned_workload() {
  seq::FamilyModelConfig config;
  config.num_families = 6;
  config.min_members = 3;
  config.max_members = 8;
  config.num_background_orfs = 3;
  config.seed = 77;
  auto mg = seq::generate_metagenome(config);
  return {std::move(mg.sequences), std::move(mg.family)};
}

/// Base = store over the first `cut` sequences, next = store over all of
/// them — the "next extends base" shape build_snapshot_delta requires.
struct StorePair {
  FamilyStore base;
  FamilyStore next;
};

StorePair pinned_stores(std::size_t cut) {
  const Workload w = pinned_workload();
  const seq::SequenceSet head(w.sequences.begin(),
                              w.sequences.begin() +
                                  static_cast<std::ptrdiff_t>(cut));
  const std::vector<u32> head_family(w.family.begin(),
                                     w.family.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
  return {build_family_store(head, head_family),
          build_family_store(w.sequences, w.family)};
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string fixture_path() {
  return std::string(GPCLUST_TEST_DATA_DIR) + "/family_delta_v1.gpfd";
}

TEST(SnapshotDelta, BuildApplyReproducesNextByteForByte) {
  const auto [base, next] = pinned_stores(pinned_workload().sequences.size() / 2);
  const SnapshotDelta delta = build_snapshot_delta(base, next, 1);
  EXPECT_EQ(delta.num_new_sequences(),
            next.num_sequences() - base.num_sequences());

  const FamilyStore applied = apply_snapshot_delta(base, delta);
  EXPECT_EQ(applied, next);
  EXPECT_EQ(serialize_snapshot(applied), serialize_snapshot(next));
}

TEST(SnapshotDelta, SerializationRoundTripsAndIsDeterministic) {
  const auto [base, next] = pinned_stores(5);
  const SnapshotDelta delta = build_snapshot_delta(base, next, 3);
  const std::vector<char> bytes = serialize_delta(delta);
  EXPECT_EQ(bytes, serialize_delta(delta));  // deterministic
  const SnapshotDelta reloaded = deserialize_delta(bytes);
  EXPECT_EQ(reloaded, delta);
  EXPECT_EQ(serialize_delta(reloaded), bytes);

  const std::string path = temp_path("gpclust_delta_test.gpfd");
  write_delta(delta, path);
  EXPECT_EQ(load_delta(path), delta);
  std::filesystem::remove(path);
}

TEST(SnapshotDelta, TruncationIsTypedCorruption) {
  // A kill mid-write leaves a prefix of the file; every truncation point
  // must be SnapshotError (never a crash or a half-applied delta).
  const auto [base, next] = pinned_stores(6);
  const std::vector<char> bytes =
      serialize_delta(build_snapshot_delta(base, next, 1));
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{15}, std::size_t{40},
        bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<char> cut(bytes.begin(),
                                bytes.begin() +
                                    static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(deserialize_delta(cut), SnapshotError) << keep;
  }
}

TEST(SnapshotDelta, BitFlipIsTypedCorruption) {
  const auto [base, next] = pinned_stores(6);
  const std::vector<char> bytes =
      serialize_delta(build_snapshot_delta(base, next, 1));
  // Flip one byte in every region: magic, section table, payloads.
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{20}, bytes.size() / 2,
        bytes.size() - 9}) {
    std::vector<char> corrupted = bytes;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0x40);
    EXPECT_THROW(deserialize_delta(corrupted), SnapshotError) << pos;
  }
}

TEST(SnapshotDelta, VersionSkewIsTypedCorruption) {
  const auto [base, next] = pinned_stores(6);
  std::vector<char> bytes =
      serialize_delta(build_snapshot_delta(base, next, 1));
  bytes[8] = 2;  // version field (u32 LE at offset 8)
  try {
    deserialize_delta(bytes);
    FAIL() << "version skew not detected";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotDelta, OutOfOrderChainApplicationIsTypedCorruption) {
  // Two chained deltas: base -> mid -> next. Applying the second link to
  // the base (skipping the first) or re-applying the first to its own
  // result must fail the recorded base CRC, not drift silently.
  const Workload w = pinned_workload();
  const std::size_t third = w.sequences.size() / 3;
  auto prefix_store = [&](std::size_t n) {
    const seq::SequenceSet head(w.sequences.begin(),
                                w.sequences.begin() +
                                    static_cast<std::ptrdiff_t>(n));
    const std::vector<u32> fam(w.family.begin(),
                               w.family.begin() +
                                   static_cast<std::ptrdiff_t>(n));
    return build_family_store(head, fam);
  };
  const FamilyStore base = prefix_store(third);
  const FamilyStore mid = prefix_store(2 * third);
  const FamilyStore next = prefix_store(w.sequences.size());
  const SnapshotDelta d1 = build_snapshot_delta(base, mid, 1);
  const SnapshotDelta d2 = build_snapshot_delta(mid, next, 2);

  // In order: fine.
  EXPECT_EQ(apply_snapshot_delta(apply_snapshot_delta(base, d1), d2), next);
  // Out of order: typed failures.
  EXPECT_THROW(apply_snapshot_delta(base, d2), SnapshotError);
  EXPECT_THROW(apply_snapshot_delta(mid, d1), SnapshotError);
}

TEST(SnapshotDelta, EditedBaseIsTypedCorruption) {
  // Same shape, one residue changed: only the recomputed base CRC can tell.
  const auto [base, next] = pinned_stores(6);
  const SnapshotDelta delta = build_snapshot_delta(base, next, 1);
  FamilyStore edited = base;
  edited.residues[0] = edited.residues[0] == 'A' ? 'C' : 'A';
  try {
    apply_snapshot_delta(edited, delta);
    FAIL() << "edited base not detected";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("different base"), std::string::npos);
  }
}

TEST(SnapshotDelta, FlippedResultCrcIsTypedCorruption) {
  const auto [base, next] = pinned_stores(6);
  SnapshotDelta delta = build_snapshot_delta(base, next, 1);
  delta.result_crc ^= 1u;
  try {
    apply_snapshot_delta(base, delta);
    FAIL() << "flipped result CRC not detected";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("does not reproduce"),
              std::string::npos);
  }
}

TEST(SnapshotDelta, PermutedCarriedFamiliesApplyThroughTheFallback) {
  // A valid delta may relabel carried families in any order. Reversing
  // them makes the carried rep remap order-reversing, so the postings
  // cannot be patched by a linear merge; apply must fall back to the
  // from-scratch postings build and still reproduce `next` exactly. Every
  // sequence starts with the same motif, so its k-mers' posting runs span
  // the reps of all families and a missing fallback leaves them unsorted.
  // Mixed in: appended sequences forming fresh families.
  Workload w = pinned_workload();
  for (seq::ProteinSequence& s : w.sequences) {
    s.residues = "MKTAYIAKQRQISFVK" + s.residues;
  }
  const std::size_t cut = w.sequences.size() / 2;
  const seq::SequenceSet head(w.sequences.begin(),
                              w.sequences.begin() +
                                  static_cast<std::ptrdiff_t>(cut));
  const std::vector<u32> head_family(w.family.begin(),
                                     w.family.begin() +
                                         static_cast<std::ptrdiff_t>(cut));
  const FamilyStore base = build_family_store(head, head_family);
  ASSERT_GE(base.num_families, 3u);

  // next: the base families reversed, then one fresh family per appended
  // sequence (a singleton cannot equal any base family).
  std::vector<u32> next_family(w.sequences.size());
  for (std::size_t s = 0; s < cut; ++s) {
    next_family[s] = static_cast<u32>(base.num_families - 1 - base.family_of[s]);
  }
  for (std::size_t s = cut; s < w.sequences.size(); ++s) {
    next_family[s] = static_cast<u32>(base.num_families + (s - cut));
  }
  const FamilyStore next = build_family_store(w.sequences, next_family);

  const SnapshotDelta delta = build_snapshot_delta(base, next, 1);
  ASSERT_TRUE(delta.moved_seq.empty());
  EXPECT_EQ(apply_snapshot_delta(base, delta), next);
  EXPECT_EQ(patch_family_store(base, delta), next);
}

TEST(SnapshotDelta, MissingFileIsIoErrorNotCorruption) {
  EXPECT_THROW(load_delta(temp_path("gpclust_no_such_delta.gpfd")),
               SnapshotIoError);
}

TEST(SnapshotDelta, FollowDeltaChainWalksAndStopsAtGaps) {
  const Workload w = pinned_workload();
  const std::size_t third = w.sequences.size() / 3;
  auto prefix_store = [&](std::size_t n) {
    const seq::SequenceSet head(w.sequences.begin(),
                                w.sequences.begin() +
                                    static_cast<std::ptrdiff_t>(n));
    const std::vector<u32> fam(w.family.begin(),
                               w.family.begin() +
                                   static_cast<std::ptrdiff_t>(n));
    return build_family_store(head, fam);
  };
  const FamilyStore base = prefix_store(third);
  const FamilyStore mid = prefix_store(2 * third);
  const FamilyStore next = prefix_store(w.sequences.size());

  const std::string base_path = temp_path("gpclust_chain_test.gpfi");
  write_snapshot(base, base_path);
  write_delta(build_snapshot_delta(base, mid, 1),
              delta_chain_path(base_path, 1));
  write_delta(build_snapshot_delta(mid, next, 2),
              delta_chain_path(base_path, 2));

  const DeltaChainTip tip = follow_delta_chain(base_path);
  EXPECT_EQ(tip.chain_length, 2u);
  EXPECT_EQ(tip.store, next);

  // A truncated final link (kill mid-write) is typed corruption — and
  // removing it leaves the earlier chain fully loadable; the base file is
  // never modified.
  {
    std::ifstream in(delta_chain_path(base_path, 2), std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(delta_chain_path(base_path, 2),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(follow_delta_chain(base_path), SnapshotError);
  std::filesystem::remove(delta_chain_path(base_path, 2));
  const DeltaChainTip prefix = follow_delta_chain(base_path);
  EXPECT_EQ(prefix.chain_length, 1u);
  EXPECT_EQ(prefix.store, mid);
  EXPECT_EQ(load_snapshot(base_path), base);

  // A gap ends the chain: with link 1 gone, link 2 (even valid) is an
  // orphan and the tip is the base itself.
  std::filesystem::remove(delta_chain_path(base_path, 1));
  write_delta(build_snapshot_delta(mid, next, 2),
              delta_chain_path(base_path, 2));
  const DeltaChainTip only_base = follow_delta_chain(base_path);
  EXPECT_EQ(only_base.chain_length, 0u);
  EXPECT_EQ(only_base.store, base);

  std::filesystem::remove(base_path);
  std::filesystem::remove(delta_chain_path(base_path, 2));
}

TEST(SnapshotDeltaCompat, FixtureIsStillAtVersionOne) {
  std::ifstream in(fixture_path(), std::ios::binary);
  ASSERT_TRUE(in.good()) << fixture_path();
  std::vector<char> head(16);
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  ASSERT_EQ(in.gcount(), 16);
  EXPECT_EQ(std::string(head.data(), 8), "GPCLDLTA");
  EXPECT_EQ(static_cast<unsigned char>(head[8]), 1u);
}

TEST(SnapshotDeltaCompat, FixtureAppliesToThePinnedBase) {
  const auto [base, next] = pinned_stores(pinned_workload().sequences.size() / 2);
  const SnapshotDelta delta = load_delta(fixture_path());
  EXPECT_EQ(delta.chain_index, 1u);
  const FamilyStore applied = apply_snapshot_delta(base, delta);
  EXPECT_EQ(applied, next);
  EXPECT_EQ(serialize_snapshot(applied), serialize_snapshot(next));
  // The current builder still produces the committed bytes.
  EXPECT_EQ(serialize_delta(build_snapshot_delta(base, next, 1)),
            serialize_delta(delta));
}

}  // namespace
}  // namespace gpclust::store
