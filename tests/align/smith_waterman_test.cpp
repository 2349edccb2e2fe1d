#include "align/smith_waterman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "align/blosum.hpp"
#include "seq/alphabet.hpp"
#include "util/rng.hpp"

namespace gpclust::align {
namespace {

/// Brute-force reference: full 2D Gotoh matrices, no optimizations.
int reference_sw(std::string_view a, std::string_view b,
                 const AlignmentParams& p) {
  const std::size_t n = a.size(), m = b.size();
  const int kNeg = -1000000;
  std::vector<std::vector<int>> H(n + 1, std::vector<int>(m + 1, 0));
  std::vector<std::vector<int>> E(n + 1, std::vector<int>(m + 1, kNeg));
  std::vector<std::vector<int>> F(n + 1, std::vector<int>(m + 1, kNeg));
  int best = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      E[i][j] = std::max(E[i - 1][j] - p.gap_extend,
                         H[i - 1][j] - p.gap_open - p.gap_extend);
      F[i][j] = std::max(F[i][j - 1] - p.gap_extend,
                         H[i][j - 1] - p.gap_open - p.gap_extend);
      const int diag = H[i - 1][j - 1] + blosum62(a[i - 1], b[j - 1]);
      H[i][j] = std::max({0, diag, E[i][j], F[i][j]});
      best = std::max(best, H[i][j]);
    }
  }
  return best;
}

std::string random_protein(util::Xoshiro256& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) {
    c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
  }
  return s;
}

TEST(SmithWaterman, IdenticalSequencesScoreSelfAlignment) {
  const std::string s = "MKVLAAGGHTREQW";
  int expected = 0;
  for (char c : s) expected += blosum62(c, c);
  const auto result = smith_waterman(s, s);
  EXPECT_EQ(result.score, expected);
  EXPECT_EQ(result.a_end, s.size());
  EXPECT_EQ(result.b_end, s.size());
}

TEST(SmithWaterman, LocalAlignmentIgnoresFlanks) {
  // A shared core with unrelated flanks must score at least the core.
  const std::string core = "WWWHHHKKKFFF";
  const std::string a = "AAAAA" + core + "GGGGG";
  const std::string b = "PPPPP" + core + "LLLLL";
  int core_score = 0;
  for (char c : core) core_score += blosum62(c, c);
  EXPECT_GE(smith_waterman(a, b).score, core_score);
}

TEST(SmithWaterman, EmptyInputsScoreZero) {
  EXPECT_EQ(smith_waterman("", "MKV").score, 0);
  EXPECT_EQ(smith_waterman("MKV", "").score, 0);
  EXPECT_EQ(smith_waterman("", "").score, 0);
}

TEST(SmithWaterman, UnrelatedShortSequencesScoreLow) {
  // Score can never go negative, and dissimilar residues stay near zero.
  const auto r = smith_waterman("CCCC", "GGGG");
  EXPECT_GE(r.score, 0);
  EXPECT_LT(r.score, 4);
}

TEST(SmithWaterman, GapAlignmentBeatsMismatchWhenCheap) {
  // Deleting one residue: "MKVVLA" vs "MKVLA".
  AlignmentParams cheap_gaps{.gap_open = 1, .gap_extend = 1};
  const auto with_gap = smith_waterman("MKVVLA", "MKVLA", cheap_gaps);
  int full = 0;
  for (char c : std::string("MKVLA")) full += blosum62(c, c);
  EXPECT_GE(with_gap.score, full - 2);
}

TEST(SmithWaterman, MatchesBruteForceReferenceOnRandomInputs) {
  util::Xoshiro256 rng(77);
  const AlignmentParams params;
  for (int iter = 0; iter < 40; ++iter) {
    const auto a = random_protein(rng, 5 + rng.next_below(60));
    const auto b = random_protein(rng, 5 + rng.next_below(60));
    EXPECT_EQ(smith_waterman(a, b, params).score,
              reference_sw(a, b, params))
        << "a=" << a << " b=" << b;
  }
}

TEST(SmithWaterman, MatchesReferenceWithVariousGapPenalties) {
  util::Xoshiro256 rng(123);
  for (int go : {0, 2, 5, 11}) {
    for (int ge : {1, 3}) {
      const AlignmentParams p{.gap_open = go, .gap_extend = ge};
      for (int iter = 0; iter < 10; ++iter) {
        const auto a = random_protein(rng, 10 + rng.next_below(40));
        const auto b = random_protein(rng, 10 + rng.next_below(40));
        EXPECT_EQ(smith_waterman(a, b, p).score, reference_sw(a, b, p));
      }
    }
  }
}

TEST(SmithWaterman, NegativeGapPenaltyRejected) {
  AlignmentParams p{.gap_open = -1, .gap_extend = 1};
  EXPECT_THROW(smith_waterman("MKV", "MKV", p), InvalidArgument);
}

TEST(SmithWatermanTraced, IdenticalSequencesFullIdentity) {
  const std::string s = "MKVLAAGGHTREQW";
  const auto t = smith_waterman_traced(s, s);
  EXPECT_EQ(t.score, smith_waterman(s, s).score);
  EXPECT_EQ(t.a_begin, 0u);
  EXPECT_EQ(t.a_end, s.size());
  EXPECT_EQ(t.b_begin, 0u);
  EXPECT_EQ(t.b_end, s.size());
  EXPECT_EQ(t.matches, s.size());
  EXPECT_EQ(t.alignment_length, s.size());
  EXPECT_DOUBLE_EQ(t.identity(), 1.0);
  EXPECT_EQ(t.ops, std::string(s.size(), '|'));
}

TEST(SmithWatermanTraced, ScoreAlwaysMatchesScoreOnlyVariant) {
  util::Xoshiro256 rng(41);
  for (int iter = 0; iter < 30; ++iter) {
    const auto a = random_protein(rng, 5 + rng.next_below(60));
    const auto b = random_protein(rng, 5 + rng.next_below(60));
    EXPECT_EQ(smith_waterman_traced(a, b).score, smith_waterman(a, b).score);
  }
}

TEST(SmithWatermanTraced, LocatesTheSharedCore) {
  const std::string core = "WWWHHHKKKFFF";
  const std::string a = "AAAAA" + core + "GGGGG";
  const std::string b = "PPPPP" + core + "LLLLL";
  const auto t = smith_waterman_traced(a, b);
  // The aligned window must cover the planted core on both sequences.
  EXPECT_LE(t.a_begin, 5u);
  EXPECT_GE(t.a_end, 5u + core.size());
  EXPECT_LE(t.b_begin, 5u);
  EXPECT_GE(t.b_end, 5u + core.size());
  EXPECT_GE(t.matches, core.size());
}

TEST(SmithWatermanTraced, SubstitutionLowersIdentity) {
  const std::string a = "WWWHHHKKKFFF";
  std::string b = a;
  b[5] = 'Y';  // one substitution
  const auto t = smith_waterman_traced(a, b);
  EXPECT_EQ(t.alignment_length, a.size());
  EXPECT_EQ(t.matches, a.size() - 1);
  EXPECT_EQ(t.ops[5], '.');
}

TEST(SmithWatermanTraced, GapOpsRecorded) {
  AlignmentParams cheap{.gap_open = 1, .gap_extend = 1};
  // b lacks the doubled V, so one 'a' column (gap in b) must appear.
  const auto t = smith_waterman_traced("WWWHHVVKKKFFF", "WWWHHVKKKFFF", cheap);
  EXPECT_NE(t.ops.find('a'), std::string::npos);
  // ops length = matches + substitutions + gaps; spans consistent.
  std::size_t a_cols = 0, b_cols = 0;
  for (char op : t.ops) {
    if (op != 'b') ++a_cols;
    if (op != 'a') ++b_cols;
  }
  EXPECT_EQ(a_cols, t.a_end - t.a_begin);
  EXPECT_EQ(b_cols, t.b_end - t.b_begin);
}

TEST(SmithWatermanTraced, ColumnAccountingHoldsOnRandomPairs) {
  util::Xoshiro256 rng(53);
  for (int iter = 0; iter < 25; ++iter) {
    const auto a = random_protein(rng, 10 + rng.next_below(50));
    const auto b = random_protein(rng, 10 + rng.next_below(50));
    const auto t = smith_waterman_traced(a, b);
    std::size_t matches = 0, a_cols = 0, b_cols = 0;
    for (std::size_t c = 0; c < t.ops.size(); ++c) {
      if (t.ops[c] == '|') ++matches;
      if (t.ops[c] != 'b') ++a_cols;
      if (t.ops[c] != 'a') ++b_cols;
    }
    EXPECT_EQ(matches, t.matches);
    EXPECT_EQ(a_cols, t.a_end - t.a_begin);
    EXPECT_EQ(b_cols, t.b_end - t.b_begin);
    EXPECT_EQ(t.alignment_length, t.ops.size());
    EXPECT_LE(t.identity(), 1.0);
  }
}

TEST(SmithWatermanTraced, EmptyInputs) {
  const auto t = smith_waterman_traced("", "MKV");
  EXPECT_EQ(t.score, 0);
  EXPECT_EQ(t.alignment_length, 0u);
  EXPECT_DOUBLE_EQ(t.identity(), 0.0);
}

TEST(SmithWatermanBanded, WideBandMatchesFull) {
  util::Xoshiro256 rng(9);
  for (int iter = 0; iter < 20; ++iter) {
    const auto a = random_protein(rng, 10 + rng.next_below(50));
    const auto b = random_protein(rng, 10 + rng.next_below(50));
    const auto full = smith_waterman(a, b);
    const auto banded =
        smith_waterman_traced_banded(a, b, std::max(a.size(), b.size()));
    EXPECT_EQ(banded.score, full.score);
  }
}

TEST(SmithWatermanBanded, NeverOverestimates) {
  util::Xoshiro256 rng(31);
  for (int iter = 0; iter < 30; ++iter) {
    const auto a = random_protein(rng, 20 + rng.next_below(40));
    const auto b = random_protein(rng, 20 + rng.next_below(40));
    const int full = smith_waterman(a, b).score;
    for (std::size_t band : {0u, 1u, 3u, 8u}) {
      EXPECT_LE(smith_waterman_traced_banded(a, b, band).score, full);
    }
  }
}

TEST(SmithWatermanBanded, DiagonalCoreFoundWithNarrowBand) {
  const std::string s = "MKVLAAGGHTREQWMKVLAAGGHTREQW";
  const auto full = smith_waterman(s, s);
  const auto banded = smith_waterman_traced_banded(s, s, 0);
  EXPECT_EQ(banded.score, full.score);  // perfect diagonal needs band 0
}

TEST(SmithWatermanTracedBanded, WideBandMatchesFullTraceback) {
  util::Xoshiro256 rng(71);
  for (int iter = 0; iter < 30; ++iter) {
    const auto a = random_protein(rng, 10 + rng.next_below(50));
    const auto b = random_protein(rng, 10 + rng.next_below(50));
    const auto full = smith_waterman_traced(a, b);
    const auto banded =
        smith_waterman_traced_banded(a, b, std::max(a.size(), b.size()));
    EXPECT_EQ(banded.score, full.score);
    // Same optimum and same deterministic tie-breaks -> identical trace.
    EXPECT_EQ(banded.a_begin, full.a_begin);
    EXPECT_EQ(banded.a_end, full.a_end);
    EXPECT_EQ(banded.b_begin, full.b_begin);
    EXPECT_EQ(banded.b_end, full.b_end);
    EXPECT_EQ(banded.ops, full.ops);
    EXPECT_EQ(banded.matches, full.matches);
  }
}

TEST(SmithWatermanTracedBanded, ScoreMonotoneNonIncreasingAsBandShrinks) {
  util::Xoshiro256 rng(83);
  for (int iter = 0; iter < 25; ++iter) {
    const auto a = random_protein(rng, 20 + rng.next_below(40));
    const auto b = random_protein(rng, 20 + rng.next_below(40));
    int prev = smith_waterman_traced_banded(a, b, std::max(a.size(), b.size()))
                   .score;
    EXPECT_EQ(prev, smith_waterman(a, b).score);
    for (std::size_t band : {32u, 16u, 8u, 4u, 2u, 1u, 0u}) {
      const auto t = smith_waterman_traced_banded(a, b, band);
      EXPECT_LE(t.score, prev) << "band=" << band;
      prev = t.score;
    }
  }
}

TEST(SmithWatermanTracedBanded, ColumnAccountingHoldsInsideTheBand) {
  util::Xoshiro256 rng(97);
  for (int iter = 0; iter < 20; ++iter) {
    const auto a = random_protein(rng, 15 + rng.next_below(40));
    const auto b = random_protein(rng, 15 + rng.next_below(40));
    const auto t = smith_waterman_traced_banded(a, b, 6);
    std::size_t matches = 0, a_cols = 0, b_cols = 0;
    for (char op : t.ops) {
      if (op == '|') ++matches;
      if (op != 'b') ++a_cols;
      if (op != 'a') ++b_cols;
    }
    EXPECT_EQ(matches, t.matches);
    EXPECT_EQ(a_cols, t.a_end - t.a_begin);
    EXPECT_EQ(b_cols, t.b_end - t.b_begin);
    EXPECT_EQ(t.alignment_length, t.ops.size());
  }
}

TEST(SmithWatermanTracedBanded, EmptyAndBandZero) {
  EXPECT_EQ(smith_waterman_traced_banded("", "MKV", 4).score, 0);
  EXPECT_EQ(smith_waterman_traced_banded("MKV", "", 4).score, 0);
  const std::string s = "MKVLAAGGHTREQW";
  const auto t = smith_waterman_traced_banded(s, s, 0);
  EXPECT_EQ(t.score, smith_waterman(s, s).score);
  EXPECT_EQ(t.ops, std::string(s.size(), '|'));
}

}  // namespace
}  // namespace gpclust::align
