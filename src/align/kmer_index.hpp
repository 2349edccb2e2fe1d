#pragma once
// Candidate-pair generation for homology-graph construction. pGraph uses
// suffix trees to find promising pairs via maximal exact matches [14];
// this substitute indexes fixed-length k-mers and promotes a pair when the
// two sequences share at least `min_shared_kmers` distinct k-mers — the
// same "exact-match seed" filtering idea with a simpler, well-understood
// data structure (documented substitution, DESIGN.md §1).

#include <span>
#include <utility>
#include <vector>

#include "seq/sequence.hpp"
#include "util/common.hpp"

namespace gpclust::align {

struct KmerIndexConfig {
  std::size_t k = 5;                  ///< k-mer length (residues)
  std::size_t min_shared_kmers = 2;   ///< seeds required to promote a pair
  /// k-mers occurring in more than this many sequences are ignored
  /// (low-complexity / repeat masking, keeps candidate lists near-linear).
  std::size_t max_kmer_occurrences = 200;
};

struct CandidatePair {
  u32 a;
  u32 b;
  u32 shared_kmers;
  /// Representative seed diagonal (first occurrence of a shared seed:
  /// pos_in_a - pos_in_b); the mode over shared seeds, smallest on ties.
  /// Anchors the optional ungapped x-drop prefilter; 0 when unknown.
  i32 diag = 0;

  friend bool operator==(const CandidatePair&, const CandidatePair&) = default;
};

/// One distinct k-mer of a sequence at its first occurrence: the flat
/// posting the sort-based index groups by (code, seq) — and the streaming
/// ingest session keeps as its standing index.
struct KmerPosting {
  u64 code;
  u32 seq;
  u32 pos;  ///< first occurrence of the k-mer in the sequence
};

/// One shared seed of a pair, ordered by (key, diag).
struct PairSeed {
  u64 key;   ///< (a << 32) | b, a < b
  i32 diag;  ///< pos_in_a - pos_in_b of the seed's first occurrences

  friend bool operator<(const PairSeed& x, const PairSeed& y) {
    return std::pair(x.key, x.diag) < std::pair(y.key, y.diag);
  }
};

/// The seed -> candidate aggregation of both k-mer seed paths
/// (find_candidate_pairs and the streaming-ingest session): sorts `seeds`
/// by (key, diag) — one linear check when they already are, as the
/// from-scratch group-by hands them over — then each run of one key with
/// at least `min_shared_kmers` seeds becomes a pair whose count is the
/// run length and whose diag is the run's mode diagonal (smallest on ties,
/// which the ascending order yields for free). Pairs come out
/// (a, b)-ascending.
std::vector<CandidatePair> promote_seed_runs(std::span<PairSeed> seeds,
                                             std::size_t min_shared_kmers);

/// Builds the k-mer index over `sequences` and reports all promising pairs
/// (a < b) with their shared-seed counts. When `peak_candidate_bytes` is
/// non-null it receives the high-water mark of the stage's live buffers
/// (postings, per-seed pair records, emitted pairs), in bytes — size-based
/// and deterministic, so bench_graph_scale's memory-budget comparison is
/// measured from the actual buffers rather than estimated.
std::vector<CandidatePair> find_candidate_pairs(
    const seq::SequenceSet& sequences, const KmerIndexConfig& config = {},
    std::size_t* peak_candidate_bytes = nullptr);

}  // namespace gpclust::align
