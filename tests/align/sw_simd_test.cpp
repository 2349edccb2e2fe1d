#include "align/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "align/blosum.hpp"
#include "align/prefilter.hpp"
#include "align/query_profile.hpp"
#include "align/smith_waterman.hpp"
#include "seq/alphabet.hpp"
#include "util/rng.hpp"

namespace gpclust::align {
namespace {

std::string random_protein(util::Xoshiro256& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) {
    c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
  }
  return s;
}

/// Derives a related sequence: point substitutions plus optional indels.
std::string mutate(util::Xoshiro256& rng, const std::string& base,
                   double sub_rate, std::size_t indel_len) {
  std::string m = base;
  for (auto& c : m) {
    if (rng.next_below(1000) < static_cast<u64>(sub_rate * 1000)) {
      c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
    }
  }
  if (indel_len > 0 && !m.empty()) {
    const std::size_t at = rng.next_below(m.size());
    if (rng.next_below(2) == 0) {
      m.insert(at, random_protein(rng, indel_len));
    } else {
      m.erase(at, std::min(indel_len, m.size() - at));
    }
  }
  return m;
}

TEST(SwSimd, ScoreMatchesScalarOnLargeFuzzCorpus) {
  util::Xoshiro256 rng(2024);
  SimdCounters counters;
  std::size_t checked = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    // Length regimes: mostly short (the metagenomic ORF range), a slice of
    // empty/one-residue edge cases, occasional related pairs with indels.
    const std::size_t la = iter % 97 == 0 ? rng.next_below(2)
                                          : rng.next_below(90);
    std::string a = random_protein(rng, la);
    std::string b;
    if (iter % 5 == 0 && la >= 20) {
      b = mutate(rng, a, 0.1, iter % 10 == 0 ? 12 : 0);  // homolog, long indel
    } else {
      b = random_protein(rng, iter % 97 == 1 ? rng.next_below(2)
                                             : rng.next_below(90));
    }
    const int scalar = smith_waterman(a, b).score;
    const int simd = smith_waterman_simd(a, b, {}, &counters).score;
    ASSERT_EQ(simd, scalar) << "iter=" << iter << " a=" << a << " b=" << b;
    ++checked;
  }
  EXPECT_EQ(checked, 10000u);
  EXPECT_GT(counters.runs_8bit, 0u);
}

TEST(SwSimd, ScoreMatchesScalarAcrossGapPenalties) {
  util::Xoshiro256 rng(501);
  for (int go : {0, 2, 11, 40}) {
    for (int ge : {0, 1, 3}) {
      const AlignmentParams p{.gap_open = go, .gap_extend = ge};
      for (int iter = 0; iter < 150; ++iter) {
        const auto a = random_protein(rng, rng.next_below(70));
        const auto b = random_protein(rng, rng.next_below(70));
        ASSERT_EQ(smith_waterman_simd(a, b, p).score,
                  smith_waterman(a, b, p).score)
            << "go=" << go << " ge=" << ge << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(SwSimd, EightBitSaturationRescuedExactly) {
  // Near-identical long pairs score far past the 8-bit ceiling; the kernel
  // must detect the clip and rerun at 16 bits with the exact result.
  util::Xoshiro256 rng(77);
  SimdCounters counters;
  for (int iter = 0; iter < 20; ++iter) {
    const auto a = random_protein(rng, 400 + rng.next_below(400));
    const auto b = mutate(rng, a, 0.05, iter % 3 == 0 ? 20 : 0);
    ASSERT_EQ(smith_waterman_simd(a, b, {}, &counters).score,
              smith_waterman(a, b).score);
  }
  EXPECT_GT(counters.rescues_16bit, 0u);
  EXPECT_EQ(counters.scalar_fallbacks, 0u);
}

TEST(SwSimd, EndCoordinatesNameAnOptimalCell) {
  // The SIMD end cell may differ from the scalar tie-break, but the DP
  // restricted to the prefixes ending there must reach the full score.
  util::Xoshiro256 rng(31337);
  for (int iter = 0; iter < 300; ++iter) {
    const auto a = random_protein(rng, 10 + rng.next_below(80));
    const auto b = iter % 3 == 0 ? mutate(rng, a, 0.15, 6)
                                 : random_protein(rng, 10 + rng.next_below(80));
    const auto r = smith_waterman_simd(a, b);
    if (r.score == 0) continue;
    ASSERT_LE(r.a_end, a.size());
    ASSERT_LE(r.b_end, b.size());
    const auto prefix = smith_waterman(std::string_view(a).substr(0, r.a_end),
                                       std::string_view(b).substr(0, r.b_end));
    EXPECT_EQ(prefix.score, r.score) << "a=" << a << " b=" << b;
  }
}

TEST(SwSimd, EmptyAndSingleResidueInputs) {
  EXPECT_EQ(smith_waterman_simd("", "").score, 0);
  EXPECT_EQ(smith_waterman_simd("", "MKV").score, 0);
  EXPECT_EQ(smith_waterman_simd("MKV", "").score, 0);
  EXPECT_EQ(smith_waterman_simd("W", "W").score, blosum62('W', 'W'));
  EXPECT_EQ(smith_waterman_simd("W", "A").score, smith_waterman("W", "A").score);
}

TEST(SwSimd, ProfileReuseGivesSameResultAsOneShot) {
  util::Xoshiro256 rng(8);
  const auto query = random_protein(rng, 60);
  const QueryProfile profile(query);
  for (int iter = 0; iter < 50; ++iter) {
    const auto target = random_protein(rng, rng.next_below(120));
    std::vector<u8> encoded(target.size());
    for (std::size_t i = 0; i < target.size(); ++i) {
      encoded[i] = seq::residue_index(target[i]);
    }
    EXPECT_EQ(smith_waterman_simd(profile, encoded).score,
              smith_waterman_simd(query, target).score);
  }
}

TEST(SwSimd, QueryProfileCacheRebuildsOnlyOnNewId) {
  // The verifier's per-worker cache: one slot, since pairs arrive sorted
  // by query id.
  LruQueryProfileCache cache(1);
  const std::string q0 = "MKVLAAGGHTREQW";
  const std::string q1 = "WWWHHHKKKFFF";
  cache.get(5, q0);
  cache.get(5, q0);
  cache.get(5, q0);
  EXPECT_EQ(cache.builds(), 1u);
  cache.get(9, q1);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.get(9, q1).query(), q1);
  EXPECT_EQ(cache.hits(), 3u);
  cache.get(5, q0);  // evicted by 9: rebuilt
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.size(), 1u);
  // id 0 must behave like any other id, not like "empty slot".
  LruQueryProfileCache zero(1);
  zero.get(0, q0);
  zero.get(0, q0);
  EXPECT_EQ(zero.builds(), 1u);
}

TEST(SwSimd, ProfilePaddingNeverInflatesScores) {
  // Query lengths straddling the stripe boundaries (15, 16, 17 residues at
  // 16 lanes) exercise maximal padding; scores must still be exact.
  util::Xoshiro256 rng(64);
  for (std::size_t len : {1u, 15u, 16u, 17u, 31u, 32u, 33u}) {
    for (int iter = 0; iter < 30; ++iter) {
      const auto a = random_protein(rng, len);
      const auto b = random_protein(rng, rng.next_below(80));
      ASSERT_EQ(smith_waterman_simd(a, b).score, smith_waterman(a, b).score)
          << "len=" << len << " a=" << a << " b=" << b;
    }
  }
}

TEST(SwSimd, StopScoreDecidesTheThresholdExactly) {
  // A stop score turns the kernel into a threshold decision: score >= stop
  // exactly when the full score is, a score below the stop is the full
  // score, and a stopped run's score is a lower bound with no end cell.
  // Stops straddle each pair's score and the 8-bit limit (240); long close
  // homologs push scores past it, into the 16-bit pass.
  util::Xoshiro256 rng(5150);
  std::size_t stops_8bit_past_limit = 0;  // 8-bit stops with full >= 240
  std::size_t stops_16bit = 0;
  std::size_t full_runs_below_stop = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const std::size_t la = 1 + rng.next_below(iter % 3 == 0 ? 400 : 120);
    const std::string a = random_protein(rng, la);
    const std::string b =
        iter % 2 == 0 ? mutate(rng, a, 0.05 + 0.05 * (iter % 5), iter % 4 * 4)
                      : random_protein(rng, 1 + rng.next_below(200));
    AlignmentParams params;
    if (iter % 4 == 1) params = AlignmentParams{5, 2};
    const AlignmentResult full = smith_waterman(a, b, params);
    const QueryProfile profile(a);
    std::vector<u8> encoded(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      encoded[i] = seq::residue_index(b[i]);
    }
    // A proven floor lets the dispatcher skip a doomed 8-bit pass.
    const int floor = iter % 3 == 0 ? ungapped_xdrop_score(a, b, 0, 1 << 20) : 0;
    const int stops[] = {1,        full.score / 2, full.score - 1,
                         full.score, full.score + 1, 239,
                         240,      241,            250 + static_cast<int>(
                                                         rng.next_below(600))};
    for (const int stop : stops) {
      if (stop <= 0) continue;
      SimdCounters counters;
      const AlignmentResult r =
          smith_waterman_simd(profile, encoded, params, &counters, floor, stop);
      ASSERT_EQ(r.score >= stop, full.score >= stop)
          << "stop=" << stop << " full=" << full.score << " a=" << a
          << " b=" << b;
      if (r.score < stop) {
        ASSERT_EQ(r.score, full.score) << "stop=" << stop;
        ASSERT_EQ(counters.early_stops, 0u);
        ++full_runs_below_stop;
        if (full.score > 0) {
          // The end cell closes an optimal alignment.
          ASSERT_EQ(smith_waterman(a.substr(0, r.a_end), b.substr(0, r.b_end),
                                   params)
                        .score,
                    full.score);
        }
        continue;
      }
      ASSERT_LE(r.score, full.score) << "a stop score is a lower bound";
      ASSERT_EQ(counters.early_stops, 1u);
      ASSERT_EQ(r.a_end, 0u);
      ASSERT_EQ(r.b_end, 0u);
      if (counters.rescues_16bit > 0) ++stops_16bit;
      if (counters.runs_8bit > 0 && full.score >= 240) ++stops_8bit_past_limit;
    }
  }
  EXPECT_GT(stops_8bit_past_limit, 0u);
  EXPECT_GT(stops_16bit, 0u);
  EXPECT_GT(full_runs_below_stop, 0u);
}

TEST(SwSimd, CountersPartitionAllRuns) {
  util::Xoshiro256 rng(99);
  SimdCounters counters;
  std::size_t nonempty_runs = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const auto a = random_protein(rng, rng.next_below(300));
    const auto b =
        iter % 4 == 0 && a.size() > 50 ? mutate(rng, a, 0.02, 0)
                                       : random_protein(rng, rng.next_below(300));
    smith_waterman_simd(a, b, {}, &counters);
    if (!a.empty() && !b.empty()) ++nonempty_runs;
  }
  EXPECT_EQ(counters.runs_8bit + counters.rescues_16bit +
                counters.scalar_fallbacks,
            nonempty_runs);
  EXPECT_EQ(counters.early_stops, 0u) << "no stop score, no early stop";
}

}  // namespace
}  // namespace gpclust::align
