#pragma once
// Banded MinHash/LSH candidate generation (DESIGN.md §14) — the
// sketch-based stage-1 alternative to the exact k-mer postings index
// (kmer_index.hpp). Each sequence is sketched once with the shared affine
// min-hash kernel (seq/sketch.hpp, the same derivation the serve-side
// bucket index probes with); the signature is sliced into
// `num_bands` bands of `rows_per_band` slots, and a pair becomes a
// candidate when at least `min_band_hits` of its band keys collide.
// Bands are streamed one at a time — only one band's bucket table is ever
// live — and per-pair collision counts are merged band by band, so peak
// candidate memory scales with (sequences + surviving pairs) instead of
// with the postings path's per-seed expansion. Candidates that survive
// banding are re-counted exactly (sorted distinct-code intersection) so
// the emitted CandidatePairs carry true shared-k-mer counts and the
// downstream prefilter behaves as it does for the exact path; recall
// against the exact path's edge set is probabilistic and tunable by
// (num_bands, rows_per_band) — the frontier is measured by
// bench_graph_scale and recorded in EXPERIMENTS.md.

#include <span>
#include <vector>

#include "align/kmer_index.hpp"
#include "obs/trace.hpp"
#include "seq/sequence.hpp"
#include "util/common.hpp"

namespace gpclust::align {

struct LshSeedConfig {
  std::size_t k = 5;        ///< k-mer length (matches KmerIndexConfig::k)
  u64 num_bands = 32;       ///< LSH bands (CLI --lsh-bands)
  u64 rows_per_band = 1;    ///< signature slots per band (CLI --lsh-rows)
  /// Sketch derivation seed. Independent of the serve tier's signature
  /// seed: build-side candidates never touch a snapshot.
  u64 seed = 0x4c534842ull;  // "LSHB"
  /// Band-key collisions required before a pair is recounted.
  u32 min_band_hits = 1;
  /// Exact shared distinct k-mers required to emit a surviving pair —
  /// the LSH analogue of KmerIndexConfig::min_shared_kmers; filters the
  /// chance bucket collisions between unrelated sequences.
  std::size_t min_shared_kmers = 2;
  /// Buckets holding more sequences than this are skipped entirely
  /// (low-complexity / repeat masking, the analogue of
  /// KmerIndexConfig::max_kmer_occurrences).
  std::size_t max_bucket_size = 200;

  void validate() const {
    GPCLUST_CHECK(k >= 2 && k <= 12, "k must be in [2, 12]");
    GPCLUST_CHECK(num_bands >= 1, "num_bands must be positive");
    GPCLUST_CHECK(rows_per_band >= 1, "rows_per_band must be positive");
    GPCLUST_CHECK(min_band_hits >= 1 && min_band_hits <= num_bands,
                  "min_band_hits must be in [1, num_bands]");
    GPCLUST_CHECK(min_shared_kmers >= 1, "min_shared_kmers must be positive");
    GPCLUST_CHECK(max_bucket_size >= 2, "max_bucket_size must be >= 2");
  }
};

/// The band-hit -> candidate tail of both LSH seed paths
/// (find_candidate_pairs_lsh and the streaming-ingest session). `keys` are
/// pair keys (a << 32 | b, a < b), ascending and distinct; a key is
/// skipped when `band_hits` is non-empty and its parallel entry is below
/// config.min_band_hits. Each remaining pair is recounted exactly over
/// both sides' sorted distinct codes (the `a` side cached from key to key)
/// and emitted, (a, b)-ascending, when it shares at least
/// config.min_shared_kmers codes; `diag` is 0. `scratch_bytes`, when
/// non-null, receives the final bytes of the two code lists (the stage's
/// peak accounting counts them).
std::vector<CandidatePair> recount_band_candidates(
    const seq::SequenceSet& sequences, const LshSeedConfig& config,
    std::span<const u64> keys, std::span<const u32> band_hits = {},
    std::size_t* scratch_bytes = nullptr);

/// Emits candidate pairs (a < b, (a, b)-ascending, deduplicated) whose
/// banded min-hash signatures collide. `shared_kmers` is the exact
/// distinct-k-mer intersection (unmasked); `diag` is 0 — the sketch keeps
/// no positions, and a zero anchor only weakens the optional dispatch
/// floor, never correctness. The signature-sketching step runs under a
/// "homology.sketch" host span on `tracer`; `peak_candidate_bytes`
/// receives the stage's live-buffer high-water mark (size-based,
/// deterministic), like find_candidate_pairs.
std::vector<CandidatePair> find_candidate_pairs_lsh(
    const seq::SequenceSet& sequences, const LshSeedConfig& config = {},
    obs::Tracer* tracer = nullptr, std::size_t* peak_candidate_bytes = nullptr);

}  // namespace gpclust::align
