#pragma once
// Streaming-ingest subsystem (DESIGN.md §15): incremental clustering of
// appended ORF batches against existing clustered state, without
// re-running the full pipeline. An IngestSession owns the accepted
// sequences, the standing seed index, the verified edge set and the
// current partition; each ingest() batch
//
//   1. merges the new sequences' seed-index entries (sorted k-mer
//      postings in KmerCount mode, banded min-hash signatures + bucket
//      entries in MinHashLsh mode) into the standing index instead of
//      rebuilding it, and emits candidate pairs only for new-vs-old and
//      new-vs-new pairs;
//   2. detects standing pairs whose repeat-masking changed (a k-mer or
//      LSH bucket crossing max occupancy can only *remove* old-vs-old
//      candidacy — occupancy is monotone under appends) and revokes the
//      affected edges that no longer qualify;
//   3. runs the unchanged prefilter + verify cascade
//      (align::verify_candidate_pairs, any VerifyBackend) on just the new
//      candidates — a pair's verdict is a pure function of the two
//      sequences and the config, so incremental and from-scratch runs
//      agree per pair;
//   4. re-runs shingling ONLY on the connected components the edge
//      changes touch, splicing the untouched standing clusters through
//      unchanged.
//
// Equivalence contract (enforced by tests/ingest): for ANY split of an
// input into batches, the session's partition digest — and the snapshot
// built from it — is identical to a from-scratch run on the concatenated
// input with the same configuration. The one caveat is the pipeline's
// existing accepted risk: a 64-bit shingle-hash collision across
// components could in principle differ between a scoped and a full
// re-shingle; the probability is the same ~2^-64 the from-scratch
// pipeline already accepts.
//
// Modes not supported: MaximalMatch seeding (no incremental index seam)
// and the heuristic prefilter tier (its shared-seed threshold is not
// append-consistent); both are rejected at construction.

#include <optional>
#include <vector>

#include "align/homology_graph.hpp"
#include "core/clustering.hpp"
#include "core/gpclust.hpp"
#include "core/params.hpp"
#include "graph/edge_list.hpp"
#include "seq/sequence.hpp"
#include "seq/sketch.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"

namespace gpclust::ingest {

/// Which engine re-clusters the touched components. Both are bit-identical
/// for identical ShinglingParams (the repo-wide invariant), so the choice
/// only moves time between measured host seconds and the modeled device
/// timeline.
enum class ClusterEngine {
  Serial,  ///< SerialShingler on the host
  Device,  ///< GpClust on the session's DeviceContext
};

struct IngestConfig {
  /// Cascade configuration shared with build_homology_graph. seed_mode
  /// must be KmerCount or MinHashLsh; prefilter.enabled must be false.
  align::HomologyGraphConfig graph;
  core::ShinglingParams shingling;
  store::StoreBuildConfig store;

  ClusterEngine engine = ClusterEngine::Serial;
  /// Required when engine == Device (and for DeviceBatched verification
  /// config.graph.device_verify.context is required as usual).
  device::DeviceContext* device = nullptr;
  /// Device-engine execution shape, fault plan and resilience policy.
  core::GpClustOptions device_options;

  /// Spans "ingest.seed" / "ingest.verify" / "ingest.recluster" (and
  /// "ingest.delta" in ingest_with_delta) plus the
  /// ingest_* counters; also handed to the cascade and the device engine
  /// when their own tracer slots are unset.
  obs::Tracer* tracer = nullptr;
};

/// Per-batch outcome. Host seconds are measured wall time; the verify
/// stage's device column (stats.verify.device) stays modeled, per the
/// repo's labeling invariant.
struct IngestBatchStats {
  std::size_t num_new_sequences = 0;
  /// New-vs-old and new-vs-new candidate pairs handed to the cascade.
  std::size_t num_candidate_pairs = 0;
  std::size_t num_accepted_edges = 0;
  /// Standing old-vs-old pairs whose repeat-masking changed this batch.
  std::size_t num_dirty_pairs = 0;
  /// Standing edges revoked because their pair lost candidacy.
  std::size_t num_revoked_edges = 0;
  std::size_t num_components = 0;          ///< post-batch, over all vertices
  std::size_t num_touched_components = 0;  ///< re-shingled this batch
  std::size_t num_touched_vertices = 0;    ///< members of touched components
  double touched_fraction = 0.0;           ///< touched vertices / all vertices
  double seed_host_s = 0.0;       ///< index merge + candidate generation
  double verify_host_s = 0.0;     ///< cascade over the new candidates
  double recluster_host_s = 0.0;  ///< scoped shingling + splice
  /// ingest_with_delta only: delta built from the splice, next store
  /// patched from the previous one, result CRC.
  double delta_host_s = 0.0;
  align::HomologyGraphStats verify;
};

class IngestSession {
 public:
  /// Starts an empty session: the first ingest() IS the from-scratch run.
  explicit IngestSession(IngestConfig config);

  /// Resumes from a persisted snapshot (or a delta-chain tip): adopts its
  /// sequences and partition, then rebuilds the standing seed index and
  /// edge set by replaying the cascade over the adopted sequences — a
  /// one-time cost, after which batches are incremental. The base's
  /// partition must be the pipeline's canonical family order (families
  /// ascending by smallest member), and config.store must rebuild the base
  /// byte for byte (same k, reps per family and signature parameters):
  /// throws InvalidArgument otherwise, since a delta chained off a
  /// different store could never apply to the base.
  IngestSession(IngestConfig config, const store::FamilyStore& base);

  /// Ingests one batch of new sequences. Strong exception guarantee: on
  /// throw (including injected device faults with resilience off) the
  /// session state is unchanged and usable.
  IngestBatchStats ingest(const seq::SequenceSet& batch);

  /// ingest() plus a versioned snapshot delta describing the batch:
  /// applying the returned delta to the pre-batch snapshot reproduces the
  /// post-batch snapshot byte-for-byte (store/delta.hpp). The delta is
  /// built straight from the batch's splice (new sequences, the touched
  /// clusters, the fresh families' representatives and signatures), and
  /// the post-batch store is patched from the cached pre-batch one through
  /// store::patch_family_store — the path apply_snapshot_delta takes — so
  /// a batch costs time in proportion to what it touched plus one CRC
  /// pass. When no pre-batch store is cached (an empty session, or the
  /// first call after a plain ingest()) it is built from scratch. Same
  /// strong exception guarantee as ingest() up to the commit of the batch.
  store::SnapshotDelta ingest_with_delta(const seq::SequenceSet& batch,
                                         u64 chain_index,
                                         IngestBatchStats* stats = nullptr);

  std::size_t num_sequences() const { return sequences_.size(); }
  std::size_t num_families() const { return clusters_.size(); }
  const seq::SequenceSet& sequences() const { return sequences_; }
  /// Verified edge set (canonical: u < v, ascending, deduplicated).
  const std::vector<graph::Edge>& edges() const { return edges_; }

  /// The current partition, families ascending by smallest member — the
  /// exact cluster order a from-scratch run reports.
  core::Clustering clustering() const;
  u64 partition_digest() const { return clustering().digest(); }

  /// Snapshot of the current state (build_family_store over the session's
  /// sequences and labels) — the from-scratch reference the patched
  /// stores of ingest_with_delta equal.
  store::FamilyStore store() const;

 private:
  struct BandEntry {
    u64 key;
    u32 band;
    u32 seq;
  };
  struct SeedOutput {
    std::vector<align::CandidatePair> pairs;  ///< new-involving, (a,b)-asc
    std::vector<u64> dirty_keys;              ///< old-old (a<<32|b), sorted
    std::vector<align::KmerPosting> merged_postings;  ///< KmerCount staging
    std::vector<BandEntry> merged_entries;    ///< MinHashLsh staging
    std::vector<u64> new_signatures;          ///< MinHashLsh staging
  };

  /// ingest() without dropping the store cache. When `family_source` is
  /// set it receives, per post-batch family, the pre-batch family whose
  /// membership it carries unchanged, or SnapshotDelta::kFreshFamily.
  IngestBatchStats ingest_batch(const seq::SequenceSet& batch,
                                std::vector<i32>* family_source);
  /// The batch's delta from its splice (chain CRCs left to the caller).
  store::SnapshotDelta splice_delta(const store::FamilyStore& base,
                                    std::size_t first_new,
                                    std::vector<i32> family_source,
                                    u64 chain_index) const;
  SeedOutput incremental_seed_kmer(std::size_t first_new) const;
  SeedOutput incremental_seed_lsh(std::size_t first_new) const;
  bool still_candidate_kmer(
      u32 a, u32 b, const std::vector<align::KmerPosting>& postings) const;
  bool still_candidate_lsh(u32 a, u32 b, const std::vector<u64>& signatures,
                           const std::vector<BandEntry>& entries) const;
  core::Clustering cluster_graph(const graph::CsrGraph& g) const;

  /// Pair-level seed tests (tests/ingest) call the seed stage directly.
  friend struct IngestSeedProbe;

  IngestConfig config_;
  seq::SequenceSet sequences_;
  /// Partition, families ascending by smallest member, members ascending.
  std::vector<std::vector<VertexId>> clusters_;
  std::vector<graph::Edge> edges_;

  // Standing seed index (exactly one populated, per config_.graph.seed_mode).
  std::vector<align::KmerPosting> postings_;  ///< sorted by (code, seq)
  std::vector<BandEntry> entries_;     ///< sorted by (band, key, seq)
  std::vector<u64> signatures_;        ///< per-seq min-hash rows (LSH width)
  std::optional<seq::SketchHashes> sketch_hashes_;  ///< MinHashLsh only

  /// Pre-batch snapshot cache for ingest_with_delta chains, and its
  /// snapshot CRC (the next link's base_crc).
  std::optional<store::FamilyStore> last_store_;
  u32 last_store_crc_ = 0;
};

}  // namespace gpclust::ingest
