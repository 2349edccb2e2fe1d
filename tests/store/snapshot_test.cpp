// store layer: build determinism, serialize/deserialize round trips,
// byte-identity of repeated builds, and the corruption contract — every
// truncation, bit flip, or header lie must surface as a typed
// SnapshotError, never a crash or a silently partial index.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <vector>

#include "seq/alphabet.hpp"
#include "seq/family_model.hpp"
#include "store/snapshot.hpp"

namespace gpclust::store {
namespace {

seq::SyntheticMetagenome make_workload(u64 seed = 5) {
  seq::FamilyModelConfig config;
  config.num_families = 8;
  config.min_members = 3;
  config.max_members = 10;
  config.num_background_orfs = 4;  // singleton families exercise rep logic
  config.seed = seed;
  return seq::generate_metagenome(config);
}

FamilyStore make_store(u64 seed = 5) {
  const auto mg = make_workload(seed);
  return build_family_store(mg.sequences, mg.family);
}

// ---------------------------------------------------------------------------
// Build semantics
// ---------------------------------------------------------------------------

TEST(StoreBuild, IndexesEverySequenceAndFamily) {
  const auto mg = make_workload();
  const auto store = build_family_store(mg.sequences, mg.family);
  ASSERT_EQ(store.num_sequences(), mg.sequences.size());
  for (std::size_t i = 0; i < mg.sequences.size(); ++i) {
    EXPECT_EQ(store.sequence(i), mg.sequences[i].residues);
    EXPECT_EQ(store.id(i), mg.sequences[i].id);
    EXPECT_EQ(store.family_of[i], mg.family[i]);
  }
  // Every family has at least one representative; every representative
  // belongs to the family it represents.
  for (u32 f = 0; f < store.num_families; ++f) {
    const auto reps = store.family_reps(f);
    ASSERT_GE(reps.size(), 1u) << "family " << f;
    for (u32 rep : reps) EXPECT_EQ(store.family_of[rep], f);
  }
}

TEST(StoreBuild, KeepsLongestMembersAsRepresentatives) {
  const auto mg = make_workload();
  StoreBuildConfig config;
  config.reps_per_family = 1;
  const auto store = build_family_store(mg.sequences, mg.family, config);
  for (u32 f = 0; f < store.num_families; ++f) {
    const auto reps = store.family_reps(f);
    ASSERT_EQ(reps.size(), 1u);
    for (std::size_t i = 0; i < store.num_sequences(); ++i) {
      if (store.family_of[i] == f) {
        EXPECT_LE(store.sequence(i).size(), store.sequence(reps[0]).size());
      }
    }
  }
}

TEST(StoreBuild, PostingsAreSortedAndDistinct) {
  const auto store = make_store();
  ASSERT_FALSE(store.postings.empty());
  for (std::size_t i = 1; i < store.postings.size(); ++i) {
    const auto& prev = store.postings[i - 1];
    const auto& cur = store.postings[i];
    EXPECT_TRUE(prev.code < cur.code ||
                (prev.code == cur.code && prev.rep < cur.rep));
  }
}

/// Test-only copy of the serial rebuild_rep_postings the bucketed
/// group-by replaced: per-representative sort + dedup, then one global
/// sort by (code, rep).
std::vector<RepPosting> serial_reference_postings(const FamilyStore& store) {
  const std::size_t k = store.kmer_k;
  std::vector<RepPosting> postings;
  for (std::size_t r = 0; r < store.representatives.size(); ++r) {
    const std::string_view residues = store.sequence(store.representatives[r]);
    if (residues.size() < k) continue;
    const auto start = static_cast<std::ptrdiff_t>(postings.size());
    for (std::size_t pos = 0; pos + k <= residues.size(); ++pos) {
      u64 code = 0;
      for (std::size_t j = 0; j < k; ++j) {
        code = code * seq::kNumResidues + seq::residue_index(residues[pos + j]);
      }
      postings.push_back({code, static_cast<u32>(r), static_cast<u32>(pos)});
    }
    std::sort(postings.begin() + start, postings.end(),
              [](const RepPosting& x, const RepPosting& y) {
                return std::pair(x.code, x.pos) < std::pair(y.code, y.pos);
              });
    postings.erase(std::unique(postings.begin() + start, postings.end(),
                               [](const RepPosting& x, const RepPosting& y) {
                                 return x.code == y.code;
                               }),
                   postings.end());
  }
  std::sort(postings.begin(), postings.end(),
            [](const RepPosting& x, const RepPosting& y) {
              return std::pair(x.code, x.rep) < std::pair(y.code, y.rep);
            });
  return postings;
}

TEST(StoreBuild, PostingsMatchSerialReference) {
  // The large workload has enough k-mer windows to group in parallel; k
  // spans the code range and reps_per_family varies the id set.
  seq::FamilyModelConfig config;
  config.num_families = 120;
  config.min_members = 2;
  config.max_members = 12;
  config.num_background_orfs = 40;
  config.seed = 23;
  const auto large = seq::generate_metagenome(config);
  const auto small = make_workload(9);
  for (const auto* mg : {&small, &large}) {
    for (std::size_t k : {2u, 5u, 12u}) {
      for (std::size_t reps : {1u, 3u}) {
        StoreBuildConfig build;
        build.k = k;
        build.reps_per_family = reps;
        FamilyStore store = build_family_store(mg->sequences, mg->family, build);
        SCOPED_TRACE("seqs=" + std::to_string(mg->sequences.size()) +
                     " k=" + std::to_string(k) +
                     " reps=" + std::to_string(reps));
        EXPECT_EQ(store.postings, serial_reference_postings(store));
        rebuild_rep_postings(store);
        EXPECT_EQ(store.postings, serial_reference_postings(store));
      }
    }
  }
}

TEST(StoreBuild, RejectsInvalidInputs) {
  const auto mg = make_workload();
  auto bad_labels = mg.family;
  bad_labels.pop_back();
  EXPECT_THROW(build_family_store(mg.sequences, bad_labels), InvalidArgument);
  StoreBuildConfig bad_k;
  bad_k.k = 1;
  EXPECT_THROW(build_family_store(mg.sequences, mg.family, bad_k),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Serialization: round trip + determinism
// ---------------------------------------------------------------------------

TEST(StoreSnapshot, RoundTripPreservesEverything) {
  const auto store = make_store();
  const auto bytes = serialize_snapshot(store);
  const auto loaded = deserialize_snapshot(bytes);
  EXPECT_EQ(loaded, store);
}

TEST(StoreSnapshot, BuildTwiceIsByteIdentical) {
  const auto once = serialize_snapshot(make_store());
  const auto twice = serialize_snapshot(make_store());
  EXPECT_EQ(once, twice);
  // And serialize(deserialize(x)) == x: no hidden non-determinism on the
  // load path either.
  EXPECT_EQ(serialize_snapshot(deserialize_snapshot(once)), once);
}

TEST(StoreSnapshot, DifferentInputsProduceDifferentBytes) {
  EXPECT_NE(serialize_snapshot(make_store(5)),
            serialize_snapshot(make_store(6)));
}

TEST(StoreSnapshot, FileRoundTrip) {
  const auto store = make_store();
  const auto path =
      (std::filesystem::temp_directory_path() / "gpclust_snapshot_test.gpfi")
          .string();
  write_snapshot(store, path);
  const auto loaded = load_snapshot(path);
  std::filesystem::remove(path);
  EXPECT_EQ(loaded, store);
}

// ---------------------------------------------------------------------------
// Crash-safe publish (write_snapshot / write_delta share one path)
// ---------------------------------------------------------------------------

/// A fresh empty directory under the temp dir, removed on scope exit.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() /
             (name + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::vector<std::string> entries() const {
    std::vector<std::string> out;
    for (const auto& e : std::filesystem::directory_iterator(path)) {
      out.push_back(e.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

std::vector<char> file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

TEST(StorePublish, MissingDirectoryThrowsAndCreatesNothing) {
  const ScratchDir dir("gpclust_publish_missing");
  const auto target = dir.path / "no_such_dir" / "families.gpfi";
  EXPECT_THROW(write_snapshot(make_store(), target.string()),
               std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(target.parent_path()));
  EXPECT_TRUE(dir.entries().empty());
}

TEST(StorePublish, TargetIsADirectoryThrowsAndLeavesNoTempFile) {
  const ScratchDir dir("gpclust_publish_onto_dir");
  const auto target = dir.path / "families.gpfi";
  std::filesystem::create_directory(target);
  std::ofstream(target / "keep") << "previous";
  EXPECT_THROW(write_snapshot(make_store(), target.string()),
               std::runtime_error);
  EXPECT_TRUE(std::filesystem::is_directory(target));
  EXPECT_EQ(file_bytes(target / "keep"),
            std::vector<char>({'p', 'r', 'e', 'v', 'i', 'o', 'u', 's'}));
  EXPECT_EQ(dir.entries(), std::vector<std::string>{"families.gpfi"});
}

TEST(StorePublish, FailedWriteLeavesThePreviousFileByteIdentical) {
  // A write that dies part-way (here: the process file-size limit, which
  // fails the temp file's write with EFBIG) must leave the published file
  // exactly as it was and remove its temp file.
  const ScratchDir dir("gpclust_publish_short_write");
  const auto target = dir.path / "families.gpfi";
  write_snapshot(make_store(5), target.string());
  const std::vector<char> previous = file_bytes(target);
  ASSERT_GT(serialize_snapshot(make_store(6)).size(), 4096u);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit small = saved;
  small.rlim_cur = 4096;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  bool threw = false;
  try {
    write_snapshot(make_store(6), target.string());
  } catch (const std::runtime_error&) {
    threw = true;
  }
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_TRUE(threw);
  EXPECT_EQ(file_bytes(target), previous);
  EXPECT_EQ(dir.entries(), std::vector<std::string>{"families.gpfi"});
}

TEST(StoreSnapshot, LoadMissingFileThrowsIoErrorNotCorruption) {
  // Missing/unreadable files are SnapshotIoError — distinct from the
  // SnapshotError corruption type so callers (gpclust-query exit codes)
  // can tell "wrong path" from "damaged index".
  EXPECT_THROW(load_snapshot("/nonexistent/gpclust.gpfi"), SnapshotIoError);
  try {
    load_snapshot("/nonexistent/gpclust.gpfi");
    FAIL() << "expected SnapshotIoError";
  } catch (const SnapshotError&) {
    FAIL() << "missing file must not be reported as corruption";
  } catch (const SnapshotIoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Corruption contract: typed error, never a crash or partial index
// ---------------------------------------------------------------------------

TEST(StoreCorruption, EveryTruncationThrowsTyped) {
  const auto bytes = serialize_snapshot(make_store());
  // Sweep all short prefixes at a byte stride (every length near the
  // header, then sampled through the payload — keeps the sweep O(seconds)).
  for (std::size_t len = 0; len < bytes.size();
       len += (len < 256 ? 1 : 97)) {
    std::vector<char> cut(bytes.begin(), bytes.begin() + len);
    EXPECT_THROW(deserialize_snapshot(cut), SnapshotError) << "len=" << len;
  }
}

TEST(StoreCorruption, EveryBitFlipThrowsOrPreservesEquality) {
  const auto store = make_store();
  const auto bytes = serialize_snapshot(store);
  // Flip one bit at a sampled set of byte offsets covering header, section
  // table, and every payload section. A flip must either be caught (CRC,
  // magic, bounds) — the common case — or, never, produce a different
  // store that loads cleanly.
  for (std::size_t pos = 0; pos < bytes.size();
       pos += (pos < 300 ? 7 : 131)) {
    auto corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    try {
      const auto loaded = deserialize_snapshot(corrupt);
      // A flip inside ignored padding can legitimately... no: padding is
      // CRC-covered too, so any surviving load means the flip was a no-op
      // on content, which a XOR by 0x10 never is.
      ADD_FAILURE() << "bit flip at byte " << pos << " loaded cleanly";
      (void)loaded;
    } catch (const SnapshotError&) {
      // expected
    }
  }
}

TEST(StoreCorruption, WrongMagicAndVersionAreTyped) {
  const auto bytes = serialize_snapshot(make_store());
  {
    auto bad = bytes;
    bad[0] = 'X';
    try {
      deserialize_snapshot(bad);
      FAIL() << "bad magic accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
    }
  }
  {
    auto bad = bytes;
    bad[8] = 99;  // format version field
    try {
      deserialize_snapshot(bad);
      FAIL() << "bad version accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
}

TEST(StoreCorruption, CrossSectionLiesAreCaught) {
  // A snapshot whose sections are individually CRC-valid but mutually
  // inconsistent must still be rejected: rebuild a store with an
  // out-of-range family label and check the serializer itself refuses.
  auto store = make_store();
  store.family_of[0] = static_cast<u32>(store.num_families + 7);
  const auto bytes = serialize_snapshot(store);  // serializer is trusting
  EXPECT_THROW(deserialize_snapshot(bytes), SnapshotError);
}

TEST(StoreCorruption, SnapshotErrorIsAlsoAParseError) {
  // Callers that already handle the repo-wide ParseError taxonomy keep
  // working.
  const std::vector<char> empty;
  EXPECT_THROW(deserialize_snapshot(empty), ParseError);
}

}  // namespace
}  // namespace gpclust::store
