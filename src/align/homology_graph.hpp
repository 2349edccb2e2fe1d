#pragma once
// Homology-graph construction — the pGraph stage [25] of the pipeline,
// structured as an explicit three-stage cascade (DESIGN.md §11):
//
//   1. candidate stream — the sort-based k-mer index, suffix-array
//      maximal matches or the banded MinHash/LSH sketch stage (§14) emits
//      promising pairs;
//   2. exact admissible prefilter — length-bound rejection that provably
//      cannot change the edge set, plus the opt-in heuristic tier;
//   3. batched score-only verification — the survivors are scored on one
//      of three interchangeable backends (host scalar, host SIMD,
//      device-batched; see align/verify_pipeline.hpp), and a pair becomes
//      an edge when its normalized score clears the thresholds.

#include "align/kmer_index.hpp"
#include "align/lsh_seeds.hpp"
#include "align/simd.hpp"
#include "align/smith_waterman.hpp"
#include "align/suffix_array.hpp"
#include "align/verify_pipeline.hpp"
#include "graph/csr_graph.hpp"
#include "obs/trace.hpp"
#include "seq/sequence.hpp"
#include "util/thread_pool.hpp"

namespace gpclust::align {

/// How promising pairs are generated before Smith-Waterman verification.
/// Only the candidate set depends on the mode — stages 2 and 3 are
/// identical, and MinHashLsh trades recall for candidate volume. (The
/// SpGEMM formulation of the exact stage, align/spgemm_seeds, is a bench
/// ablation fed to verify_candidate_pairs directly, not a mode.)
enum class SeedMode {
  KmerCount,     ///< shared distinct k-mers (simple, default)
  MaximalMatch,  ///< suffix-array maximal exact matches (pGraph's heuristic)
  MinHashLsh,    ///< banded min-hash signatures + LSH buckets (DESIGN.md §14)
};

/// Parses "kmer" | "maximal" | "minhash"; throws InvalidArgument otherwise.
SeedMode parse_seed_mode(const std::string& name);
std::string_view seed_mode_name(SeedMode mode);

/// Heuristic prefilter tier — can reject pairs the full DP would accept
/// (shared-seed counts and ungapped diagonal scores are NOT admissible
/// bounds on the gapped score; see DESIGN.md §9), so it defaults OFF and
/// the default-config edge set stays bit-identical. The exact tier
/// (length-based admissible bounds) is always on and needs no config.
struct HomologyPrefilterConfig {
  bool enabled = false;
  /// Drop pairs whose seed stage reported fewer shared seeds than this
  /// (shared k-mers in KmerCount mode, match length in MaximalMatch mode).
  u32 min_shared_seeds = 0;
  /// X-drop for the ungapped scan along the pair's seed diagonal.
  int xdrop = 20;
  /// Drop pairs whose ungapped diagonal score falls below this.
  int min_ungapped_score = 25;
};

struct HomologyGraphConfig {
  SeedMode seed_mode = SeedMode::KmerCount;
  KmerIndexConfig seeds;                ///< used when seed_mode == KmerCount
  MaximalMatchConfig maximal_matches;   ///< used when seed_mode == MaximalMatch
  LshSeedConfig lsh;                    ///< used when seed_mode == MinHashLsh
  AlignmentParams alignment;
  HomologyPrefilterConfig prefilter;    ///< heuristic tier, default off

  /// Verification backend for stage 3. All three are score-exact against
  /// the scalar reference DP, so the edge set is identical for any choice.
  VerifyBackend verify_backend = VerifyBackend::HostSimd;

  /// DeviceBatched knobs (context, batch cap, streams, resilience); the
  /// context is required when verify_backend == DeviceBatched.
  DeviceVerifyOptions device_verify;

  /// Optional phase spans + counters ("homology.seed" / "homology.verify" /
  /// "homology.graph"); nullptr records nothing.
  obs::Tracer* tracer = nullptr;

  /// Edge criterion: score >= min_score_per_residue * min(|a|, |b|).
  /// BLOSUM62 self-alignment averages ~5 per residue; 1.2 admits roughly
  /// >= 35-40% identity over the shorter sequence.
  double min_score_per_residue = 1.2;

  /// Also require an absolute score floor (suppresses tiny-fragment hits).
  int min_score = 40;

  /// When > 0, additionally require this residue identity over the aligned
  /// region (uses the traced alignment; slower but stricter — the usual
  /// ">= 30-40% identity" homology convention).
  double min_identity = 0.0;

  std::size_t num_threads = 0;  ///< 0: default pool
};

struct HomologyGraphStats {
  std::size_t num_candidate_pairs = 0;
  std::size_t num_edges = 0;
  /// DP runs actually performed: num_score_alignments +
  /// num_traced_alignments (a pair that passes the score gate and then
  /// runs the identity traceback counts twice — it ran two DPs).
  std::size_t num_alignments = 0;
  std::size_t num_score_alignments = 0;   ///< score-only passes (SIMD or scalar)
  std::size_t num_traced_alignments = 0;  ///< traceback passes (min_identity)
  std::size_t num_exact_rejects = 0;      ///< skipped by the admissible bounds
  std::size_t num_heuristic_rejects = 0;  ///< skipped by the opt-in tier
  /// Pairs that cleared both prefilter tiers and were actually scored.
  /// num_score_alignments always equals this, on every backend — a pair is
  /// scored exactly once no matter how batches are retried or replanned.
  std::size_t num_surviving_pairs = 0;
  /// Host-measured wall seconds of stage 2 (the CPU prefilter that feeds
  /// the verify backend).
  double prefilter_host_s = 0.0;
  /// Stage-1 live-buffer high-water mark in bytes (size-based,
  /// deterministic; also raised on the tracer as
  /// "homology_seed_peak_candidate_bytes"). 0 in MaximalMatch mode, which
  /// does not report one.
  std::size_t seed_peak_candidate_bytes = 0;
  SimdCounters simd;                      ///< how SIMD score passes resolved
  VerifyDeviceStats device;  ///< DeviceBatched bookkeeping (else zeros)
};

/// Stages 2 + 3 of the cascade as a standalone pass over an explicit pair
/// list: the exact admissible prefilter (plus the opt-in heuristic tier),
/// batched score-only verification on the configured backend, and the edge
/// gate. Returns one accept flag per input pair. build_homology_graph and
/// the streaming-ingest subsystem (src/ingest) share this path, so an
/// incremental run's verdict on a pair is bit-identical to a from-scratch
/// run's — the verdict is a pure function of the two sequences and the
/// config, never of the surrounding pair set.
std::vector<u8> verify_candidate_pairs(const seq::SequenceSet& sequences,
                                       std::span<const CandidatePair> pairs,
                                       const HomologyGraphConfig& config,
                                       HomologyGraphStats* stats = nullptr);

/// Builds the undirected similarity graph over `sequences` (vertex i is
/// sequences[i]). Alignment verification fans out over a thread pool.
graph::CsrGraph build_homology_graph(const seq::SequenceSet& sequences,
                                     const HomologyGraphConfig& config = {},
                                     HomologyGraphStats* stats = nullptr);

}  // namespace gpclust::align
