#include "align/kmer_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"
#include "util/rng.hpp"

namespace gpclust::align {
namespace {

seq::SequenceSet make_set(std::vector<std::string> residues) {
  seq::SequenceSet set;
  for (std::size_t i = 0; i < residues.size(); ++i) {
    set.push_back({"s" + std::to_string(i), std::move(residues[i])});
  }
  return set;
}

/// Test-only copy of the serial find_candidate_pairs the bucketed
/// group-by replaced: per-sequence sort + dedup, one global sort of the
/// postings, serial seed emission and one global sort of the seeds. The
/// production path must match it pair for pair and in peak bytes.
std::vector<CandidatePair> serial_reference_pairs(
    const seq::SequenceSet& sequences, const KmerIndexConfig& config,
    std::size_t* peak_candidate_bytes) {
  struct Posting {
    u64 code;
    u32 seq;
    u32 pos;
  };
  struct Seed {
    u64 key;
    i32 diag;
  };
  std::size_t peak_bytes = 0;
  std::vector<Posting> postings;
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const std::string& r = sequences[i].residues;
    if (r.size() < config.k) continue;
    const auto start = static_cast<std::ptrdiff_t>(postings.size());
    for (std::size_t pos = 0; pos + config.k <= r.size(); ++pos) {
      u64 code = 0;
      for (std::size_t j = 0; j < config.k; ++j) {
        code = code * seq::kNumResidues + seq::residue_index(r[pos + j]);
      }
      postings.push_back({code, static_cast<u32>(i), static_cast<u32>(pos)});
    }
    std::sort(postings.begin() + start, postings.end(),
              [](const Posting& x, const Posting& y) {
                return std::pair(x.code, x.pos) < std::pair(y.code, y.pos);
              });
    postings.erase(std::unique(postings.begin() + start, postings.end(),
                               [](const Posting& x, const Posting& y) {
                                 return x.code == y.code;
                               }),
                   postings.end());
  }
  peak_bytes = std::max(peak_bytes, postings.size() * sizeof(Posting));
  std::sort(postings.begin(), postings.end(),
            [](const Posting& x, const Posting& y) {
              return std::pair(x.code, x.seq) < std::pair(y.code, y.seq);
            });
  std::vector<Seed> seeds;
  for (std::size_t lo = 0; lo < postings.size();) {
    std::size_t hi = lo;
    while (hi < postings.size() && postings[hi].code == postings[lo].code) {
      ++hi;
    }
    const std::size_t occurrences = hi - lo;
    if (occurrences >= 2 && occurrences <= config.max_kmer_occurrences) {
      for (std::size_t x = lo; x < hi; ++x) {
        for (std::size_t y = x + 1; y < hi; ++y) {
          seeds.push_back(
              {(static_cast<u64>(postings[x].seq) << 32) | postings[y].seq,
               static_cast<i32>(postings[x].pos) -
                   static_cast<i32>(postings[y].pos)});
        }
      }
    }
    lo = hi;
  }
  std::sort(seeds.begin(), seeds.end(), [](const Seed& x, const Seed& y) {
    return std::pair(x.key, x.diag) < std::pair(y.key, y.diag);
  });
  peak_bytes = std::max(peak_bytes, postings.size() * sizeof(Posting) +
                                        seeds.size() * sizeof(Seed));
  std::vector<CandidatePair> pairs;
  for (std::size_t lo = 0; lo < seeds.size();) {
    std::size_t hi = lo;
    while (hi < seeds.size() && seeds[hi].key == seeds[lo].key) ++hi;
    const u32 count = static_cast<u32>(hi - lo);
    if (count >= config.min_shared_kmers) {
      i32 mode_diag = seeds[lo].diag;
      std::size_t mode_len = 0;
      for (std::size_t i = lo; i < hi;) {
        std::size_t j = i;
        while (j < hi && seeds[j].diag == seeds[i].diag) ++j;
        if (j - i > mode_len) {
          mode_len = j - i;
          mode_diag = seeds[i].diag;
        }
        i = j;
      }
      pairs.push_back({static_cast<u32>(seeds[lo].key >> 32),
                       static_cast<u32>(seeds[lo].key & 0xffffffffu), count,
                       mode_diag});
    }
    lo = hi;
  }
  peak_bytes = std::max(peak_bytes, postings.size() * sizeof(Posting) +
                                        seeds.size() * sizeof(Seed) +
                                        pairs.size() * sizeof(CandidatePair));
  *peak_candidate_bytes = peak_bytes;
  return pairs;
}

/// Random residues over the first `alphabet` letters, with a planted
/// motif in every `motif_every`-th sequence so pairs share seeds.
seq::SequenceSet random_set(util::Xoshiro256& rng, std::size_t count,
                            std::size_t min_len, std::size_t max_len,
                            std::size_t alphabet, std::size_t motif_every) {
  std::string motif;
  for (int i = 0; i < 16; ++i) {
    motif += seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
  }
  std::vector<std::string> residues;
  for (std::size_t s = 0; s < count; ++s) {
    std::string r;
    const std::size_t len = min_len + rng.next_below(max_len - min_len + 1);
    for (std::size_t i = 0; i < len; ++i) {
      r += seq::kResidues[rng.next_below(alphabet)];
    }
    if (s % motif_every == 0) r.insert(rng.next_below(r.size() + 1), motif);
    residues.push_back(std::move(r));
  }
  return make_set(std::move(residues));
}

TEST(KmerIndex, FindsSharedKmerPair) {
  // Two sequences sharing a 12-residue block -> many shared 5-mers.
  const auto set = make_set({"AAAAAWWHHKKFFRRAAAAA",
                             "GGGGGWWHHKKFFRRGGGGG",
                             "CCCCCCCCCCCCCCCC"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 2;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].a, 0u);
  EXPECT_EQ(pairs[0].b, 1u);
  EXPECT_GE(pairs[0].shared_kmers, 2u);
}

TEST(KmerIndex, NoPairsForDissimilarSequences) {
  const auto set = make_set({"ACDEFGHIKLMNPQRSTVWY", "YWVTSRQPNMLKIHGFEDCA"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, MinSharedThresholdFilters) {
  // Exactly one shared 5-mer ("WWHHK").
  const auto set = make_set({"AAAAAWWHHKAAAAA", "GGGGGWWHHKGGGGG"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  EXPECT_EQ(find_candidate_pairs(set, cfg).size(), 1u);
  cfg.min_shared_kmers = 3;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, RepeatMaskingDropsUbiquitousKmers) {
  // A k-mer present in every sequence is masked when it exceeds the
  // occurrence cap, so no pairs are promoted through it.
  std::vector<std::string> residues(10, "AAAAAWWHHKAAAAA");
  const auto set = make_set(std::move(residues));
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  cfg.max_kmer_occurrences = 5;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, DuplicateKmersWithinOneSequenceCountOnce) {
  // "WWHHK" appears twice in each sequence but shared count must be 1.
  const auto set = make_set({"WWHHKAAAAAWWHHK", "WWHHKGGGGGWWHHK"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].shared_kmers, 1u);
}

TEST(KmerIndex, SequencesShorterThanKIgnored) {
  const auto set = make_set({"MKV", "MKV"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  EXPECT_TRUE(find_candidate_pairs(set, cfg).empty());
}

TEST(KmerIndex, PairsAreOrderedAndUnique) {
  const auto set = make_set({"AAAAAWWHHKKFFRR", "GGGGWWHHKKFFRRG",
                             "CCCWWHHKKFFRRCC"});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 3u);
  for (const auto& p : pairs) EXPECT_LT(p.a, p.b);
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end(),
                             [](const auto& p, const auto& q) {
                               return std::pair(p.a, p.b) <
                                      std::pair(q.a, q.b);
                             }));
}

TEST(KmerIndex, SortBasedCountingMatchesMapReference) {
  // The production path counts shared seeds by sorting flat packed keys;
  // this in-test reference keeps the old hash-map formulation. The two
  // must agree on pair set, order, and counts for any input.
  util::Xoshiro256 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::string> residues;
    const std::size_t count = 3 + rng.next_below(12);
    std::string motif;
    for (int i = 0; i < 8; ++i) {
      motif += seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
    }
    for (std::size_t s = 0; s < count; ++s) {
      std::string r;
      const std::size_t len = 6 + rng.next_below(30);
      for (std::size_t i = 0; i < len; ++i) {
        r += seq::kResidues[rng.next_below(6)];  // small alphabet: collisions
      }
      if (s % 2 == 0) r.insert(rng.next_below(r.size()), motif);
      residues.push_back(std::move(r));
    }
    const auto set = make_set(std::move(residues));
    KmerIndexConfig cfg;
    cfg.k = 4;
    cfg.min_shared_kmers = 1 + rng.next_below(2);
    cfg.max_kmer_occurrences = 4 + rng.next_below(10);
    const auto pairs = find_candidate_pairs(set, cfg);

    // Reference: distinct k-mers per sequence, hash-map pair counting.
    auto distinct = [&](const std::string& s) {
      std::set<std::string> out;
      for (std::size_t p = 0; p + cfg.k <= s.size(); ++p) {
        out.insert(s.substr(p, cfg.k));
      }
      return out;
    };
    std::map<std::string, std::vector<u32>> postings;
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (const auto& kmer : distinct(set[i].residues)) {
        postings[kmer].push_back(static_cast<u32>(i));
      }
    }
    std::map<std::pair<u32, u32>, u32> counts;
    for (const auto& [kmer, seqs] : postings) {
      if (seqs.size() < 2 || seqs.size() > cfg.max_kmer_occurrences) continue;
      for (std::size_t x = 0; x < seqs.size(); ++x) {
        for (std::size_t y = x + 1; y < seqs.size(); ++y) {
          ++counts[{seqs[x], seqs[y]}];
        }
      }
    }
    std::vector<CandidatePair> expected;
    for (const auto& [key, c] : counts) {
      if (c >= cfg.min_shared_kmers) {
        expected.push_back({key.first, key.second, c, 0});
      }
    }
    ASSERT_EQ(pairs.size(), expected.size()) << "trial=" << trial;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].a, expected[i].a);
      EXPECT_EQ(pairs[i].b, expected[i].b);
      EXPECT_EQ(pairs[i].shared_kmers, expected[i].shared_kmers);
    }
  }
}

TEST(KmerIndex, SeedDiagonalTracksOffset) {
  // b is a by 4 residues shifted: every shared seed sits on diagonal +4.
  const std::string core = "WWHHKKFFRRMMNNQQEE";
  const auto set = make_set({"ACDE" + core, core});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].diag, 4);

  // Identical sequences share every seed on the main diagonal.
  const auto same = make_set({core, core});
  const auto self_pairs = find_candidate_pairs(same, cfg);
  ASSERT_EQ(self_pairs.size(), 1u);
  EXPECT_EQ(self_pairs[0].diag, 0);
}

TEST(KmerIndex, SeedDiagonalIsTheModeOverSharedSeeds) {
  // Two shared blocks: a long one on diagonal 0 (more seeds) and a short
  // one on diagonal +6; the mode must pick the long block's diagonal.
  const std::string long_block = "WWHHKKFFRRMMNN";  // 10 distinct 5-mers
  const std::string short_block = "QQEEYY";         // 2 distinct 5-mers
  const auto set = make_set({long_block + "AAAAAA" + short_block,
                             long_block + short_block});
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  const auto pairs = find_candidate_pairs(set, cfg);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].diag, 0);
}

TEST(KmerIndex, BucketedGroupByMatchesSerialReference) {
  // Small sets run every phase on the calling thread; the large ones have
  // enough k-mer windows to split across the pool. k spans the code range
  // (24^2 .. 24^12), and the occurrence cap sits on both sides of real
  // run lengths.
  util::Xoshiro256 rng(29);
  struct Case {
    std::size_t count, min_len, max_len, alphabet, motif_every;
  };
  const Case cases[] = {{2, 1, 8, 4, 1},       {40, 1, 30, 6, 2},
                        {300, 0, 400, 24, 3},  {600, 100, 300, 5, 4},
                        {1500, 50, 150, 20, 2}};
  for (const Case& c : cases) {
    const auto set =
        random_set(rng, c.count, c.min_len, c.max_len, c.alphabet,
                   c.motif_every);
    for (std::size_t k : {2u, 5u, 12u}) {
      for (std::size_t cap : {2u, 7u, 200u}) {
        KmerIndexConfig cfg;
        cfg.k = k;
        cfg.min_shared_kmers = 1 + rng.next_below(2);
        cfg.max_kmer_occurrences = cap;
        std::size_t peak = 0;
        std::size_t expected_peak = 0;
        const auto pairs = find_candidate_pairs(set, cfg, &peak);
        const auto expected = serial_reference_pairs(set, cfg, &expected_peak);
        SCOPED_TRACE("count=" + std::to_string(c.count) +
                     " k=" + std::to_string(k) + " cap=" + std::to_string(cap));
        EXPECT_EQ(pairs, expected);
        EXPECT_EQ(peak, expected_peak);
      }
    }
  }
}

TEST(KmerIndex, OccurrenceCapBoundaryIsInclusive) {
  // Only "WWHHK" is shared (every flank letter is distinct per sequence):
  // in exactly `cap` sequences it promotes every pair, in cap + 1 none.
  const std::size_t cap = 5;
  const std::string left = "ARNDCQ";
  const std::string right = "EGILMF";
  std::vector<std::string> residues;
  for (std::size_t i = 0; i <= cap; ++i) {
    residues.push_back(std::string(5, left[i]) + "WWHHK" +
                       std::string(5, right[i]));
  }
  KmerIndexConfig cfg;
  cfg.k = 5;
  cfg.min_shared_kmers = 1;
  cfg.max_kmer_occurrences = cap;
  for (std::size_t count : {cap, cap + 1}) {
    const auto set = make_set(
        std::vector<std::string>(residues.begin(), residues.begin() + count));
    std::size_t peak = 0;
    std::size_t expected_peak = 0;
    const auto pairs = find_candidate_pairs(set, cfg, &peak);
    EXPECT_EQ(pairs.size(), count == cap ? cap * (cap - 1) / 2 : 0u);
    EXPECT_EQ(pairs, serial_reference_pairs(set, cfg, &expected_peak));
    EXPECT_EQ(peak, expected_peak);
  }
}

TEST(KmerIndex, Validation) {
  const auto set = make_set({"MKVLA"});
  KmerIndexConfig cfg;
  cfg.k = 1;
  EXPECT_THROW(find_candidate_pairs(set, cfg), InvalidArgument);
  cfg = KmerIndexConfig{};
  cfg.min_shared_kmers = 0;
  EXPECT_THROW(find_candidate_pairs(set, cfg), InvalidArgument);
}

}  // namespace
}  // namespace gpclust::align
