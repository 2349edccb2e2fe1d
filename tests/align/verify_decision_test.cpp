// Differential test of the verify cascade's decisions: whatever stage 2
// decides without a DP (length-bound rejects, seed-diagonal-floor accepts)
// and whatever stage 3 decides with a stop-score kernel, the accept vector
// of verify_candidate_pairs must equal a full scalar DP plus the edge gate
// on every candidate — for every seed mode, backend, threshold, gap
// setting and identity gate.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/homology_graph.hpp"
#include "align/prefilter.hpp"
#include "align/smith_waterman.hpp"
#include "device/device_context.hpp"
#include "seq/family_model.hpp"
#include "util/rng.hpp"

namespace gpclust::align {
namespace {

std::vector<CandidatePair> candidates(const seq::SequenceSet& sequences,
                                      SeedMode mode) {
  HomologyGraphConfig cfg;
  switch (mode) {
    case SeedMode::KmerCount:
      return find_candidate_pairs(sequences, cfg.seeds);
    case SeedMode::MaximalMatch:
      return find_candidate_pairs_suffix_array(sequences,
                                               cfg.maximal_matches);
    case SeedMode::MinHashLsh:
      return find_candidate_pairs_lsh(sequences, cfg.lsh);
  }
  return {};
}

/// Full scalar DP per candidate: the optimal score and the reference
/// traceback's identity.
struct Reference {
  std::vector<int> scores;
  std::vector<double> identities;
};

Reference reference_alignments(const seq::SequenceSet& sequences,
                               std::span<const CandidatePair> pairs,
                               const AlignmentParams& params) {
  Reference ref;
  for (const CandidatePair& p : pairs) {
    const auto& a = sequences[p.a].residues;
    const auto& b = sequences[p.b].residues;
    ref.scores.push_back(smith_waterman(a, b, params).score);
    ref.identities.push_back(smith_waterman_traced(a, b, params).identity());
  }
  return ref;
}

TEST(VerifyDecision, AcceptVectorEqualsFullScalarDpPlusGate) {
  util::Xoshiro256 rng(31);
  const AlignmentParams gap_settings[] = {AlignmentParams{},
                                          AlignmentParams{5, 2}};
  std::size_t exact_accepts = 0;
  std::size_t early_stops = 0;
  std::size_t edges = 0;
  std::size_t rejected = 0;
  for (const u64 seed : {u64{11}, u64{12}, u64{13}, u64{14}, u64{15},
                         u64{16}}) {
    seq::FamilyModelConfig mcfg;
    mcfg.num_families = 5;
    mcfg.min_members = 3;
    mcfg.max_members = 5;
    mcfg.substitution_rate = 0.1 + 0.03 * static_cast<double>(seed % 4);
    mcfg.indel_rate = 0.02;
    mcfg.num_background_orfs = 6;
    mcfg.seed = seed;
    const auto sequences = seq::generate_metagenome(mcfg).sequences;

    for (const SeedMode mode : {SeedMode::KmerCount, SeedMode::MaximalMatch,
                                SeedMode::MinHashLsh}) {
      const auto pairs = candidates(sequences, mode);
      ASSERT_FALSE(pairs.empty()) << seed_mode_name(mode);
      for (const AlignmentParams& params : gap_settings) {
        const Reference ref = reference_alignments(sequences, pairs, params);
        for (int draw = 0; draw < 2; ++draw) {
          HomologyGraphConfig cfg;
          cfg.num_threads = 1 + rng.next_below(3);
          cfg.alignment = params;
          cfg.min_score = 20 + static_cast<int>(rng.next_below(381));
          cfg.min_score_per_residue =
              0.5 + 2.5 * static_cast<double>(rng.next_below(1001)) / 1000.0;
          for (const double min_identity : {0.0, 0.35}) {
            cfg.min_identity = min_identity;
            std::vector<u8> expected(pairs.size(), 0);
            for (std::size_t i = 0; i < pairs.size(); ++i) {
              const int threshold = edge_score_threshold(
                  sequences[pairs[i].a].residues.size(),
                  sequences[pairs[i].b].residues.size(), cfg.min_score,
                  cfg.min_score_per_residue);
              expected[i] = ref.scores[i] >= threshold &&
                            (min_identity <= 0.0 ||
                             ref.identities[i] >= min_identity);
            }
            for (const VerifyBackend backend :
                 {VerifyBackend::HostScalar, VerifyBackend::HostSimd,
                  VerifyBackend::DeviceBatched}) {
              device::DeviceContext ctx(
                  device::DeviceSpec::small_test_device(4 << 20));
              HomologyGraphConfig run = cfg;
              run.verify_backend = backend;
              run.device_verify.context = &ctx;
              run.device_verify.max_batch_pairs = 5;
              HomologyGraphStats stats;
              const auto accepted =
                  verify_candidate_pairs(sequences, pairs, run, &stats);
              ASSERT_EQ(accepted, expected)
                  << "seed=" << seed << " mode=" << seed_mode_name(mode)
                  << " backend=" << verify_backend_name(backend)
                  << " gap_open=" << params.gap_open
                  << " min_score=" << cfg.min_score
                  << " per_residue=" << cfg.min_score_per_residue
                  << " min_identity=" << min_identity;
              EXPECT_EQ(stats.num_score_alignments + stats.num_exact_accepts,
                        stats.num_surviving_pairs);
              if (min_identity > 0.0) {
                EXPECT_EQ(stats.num_exact_accepts, 0u);
              }
              EXPECT_EQ(ctx.arena().used(), 0u);
              exact_accepts += stats.num_exact_accepts;
              early_stops += stats.simd.early_stops;
              for (const u8 a : accepted) (a ? edges : rejected) += 1;
            }
          }
        }
      }
    }
  }
  // Every kind of decision was exercised.
  EXPECT_GT(exact_accepts, 0u);
  EXPECT_GT(early_stops, 0u);
  EXPECT_GT(edges, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace gpclust::align
