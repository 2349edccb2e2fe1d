#pragma once
// Versioned snapshot deltas (DESIGN.md §15) — the persistence half of the
// streaming-ingest subsystem. A delta is the difference between two
// family-index snapshots that share a sequence prefix: the appended
// sequences, the family relabels the batch caused, which post-batch
// families carry a pre-batch family's representative list forward, which
// pre-batch families retired, and the signature rows of the fresh
// representatives. A base snapshot plus its delta chain
// (`<base>.delta.1`, `.delta.2`, ...) reconstructs the post-batch store
// exactly:
//
//   * chained — every delta records the CRC-32 of its base's serialized
//     bytes; applying a delta to the wrong base (out-of-order chain,
//     edited base) is a typed SnapshotError, never silent drift;
//   * byte-exact — every delta also records the CRC-32 of the serialized
//     post-apply snapshot, and apply_snapshot_delta recomputes and checks
//     it (snapshot_crc, no buffer materialized), so `compact(base + deltas)` is provably byte-identical
//     to a from-scratch `gpclust-build-index` snapshot;
//   * self-validating — same framing discipline as the snapshot itself
//     (magic "GPCLDLTA", version, CRC'd section table, canonical layout);
//     truncation, bit flips and version skew raise SnapshotError, a
//     missing/unreadable file raises SnapshotIoError.

#include <string>
#include <vector>

#include "store/snapshot.hpp"
#include "util/common.hpp"

namespace gpclust::store {

/// The in-memory image of one delta. Built by build_snapshot_delta from a
/// (base, next) snapshot pair — `next` must extend `base` (identical
/// sequence prefix, same kmer_k and signature parameters) — or directly
/// from a batch's splice by IngestSession::ingest_with_delta; both produce
/// byte-identical deltas.
struct SnapshotDelta {
  u64 chain_index = 0;         ///< 1-based position in the chain
  u32 base_crc = 0;            ///< CRC-32 of the serialized base snapshot
  u32 result_crc = 0;          ///< CRC-32 of the serialized post-apply snapshot
  u64 num_base_sequences = 0;  ///< sequence count before the batch
  u64 num_base_families = 0;   ///< family count before the batch
  u64 num_families = 0;        ///< family count after the batch
  u64 kmer_k = 0;
  u64 sig_num_hashes = 0;
  u64 sig_seed = 0;

  /// Appended sequences (offsets are delta-local, starting at 0).
  std::vector<u64> seq_offsets;  ///< num_new + 1
  std::string residues;
  std::vector<u64> id_offsets;   ///< num_new + 1
  std::string ids;
  std::vector<u32> new_family_of;  ///< post-batch family per new sequence

  /// Pre-batch sequences whose post-batch family is not the image of their
  /// pre-batch family under `family_source` (ascending by sequence).
  std::vector<u32> moved_seq;
  std::vector<u32> moved_family;  ///< parallel to moved_seq

  /// Per post-batch family: the pre-batch family whose membership (and
  /// hence representative list + signatures) it carries forward verbatim,
  /// or kFreshFamily when its membership changed or it is new.
  std::vector<i32> family_source;
  static constexpr i32 kFreshFamily = -1;

  /// Pre-batch families with no post-batch image (ascending).
  std::vector<u32> retired;

  /// Representative lists of the fresh families, in ascending post-batch
  /// family order: fresh family j's reps are
  /// fresh_reps[fresh_rep_offsets[j] .. fresh_rep_offsets[j+1]).
  std::vector<u64> fresh_rep_offsets;  ///< num_fresh_families + 1
  std::vector<u32> fresh_reps;         ///< post-batch sequence indices
  /// Signature rows of the fresh reps (rep-major, sig_num_hashes each).
  std::vector<u64> signatures;

  std::size_t num_new_sequences() const {
    return seq_offsets.empty() ? 0 : seq_offsets.size() - 1;
  }
  std::size_t num_fresh_families() const {
    return fresh_rep_offsets.empty() ? 0 : fresh_rep_offsets.size() - 1;
  }

  friend bool operator==(const SnapshotDelta&, const SnapshotDelta&) = default;
};

/// Diffs two snapshots into a delta — the from-scratch reference the
/// session-built deltas are tested against. `next` must extend `base`:
/// same sequence prefix (offsets, residues, ids), same kmer_k and
/// signature parameters. Throws InvalidArgument otherwise. The returned
/// delta carries base_crc/result_crc over the two serialized snapshots,
/// so apply_snapshot_delta(base, delta) == next byte-for-byte.
SnapshotDelta build_snapshot_delta(const FamilyStore& base,
                                   const FamilyStore& next, u64 chain_index);

/// Applies a delta to its base and returns the post-batch store. Validates
/// the chain link (base_crc, recomputed from `base` with snapshot_crc),
/// then patches through patch_family_store, then checks the result CRC of
/// the output; any mismatch is a SnapshotError.
FamilyStore apply_snapshot_delta(const FamilyStore& base,
                                 const SnapshotDelta& delta);

/// The one store-patch path, (base, delta) -> next, in time proportional
/// to the delta plus one linear pass over the base's arrays: sequences are
/// appended, family labels relabeled in one pass, carried families copy
/// the base's representative lists and signature rows, and the postings
/// keep the base's entries of carried reps (rep ids remapped, retired reps
/// dropped) merged with freshly indexed postings of the fresh reps only.
/// If the carried remap is not order-preserving (a hand-made delta may
/// permute families), the postings are rebuilt from scratch instead. The
/// result equals build_family_store's for the same partition. Validates
/// the base's shape and every index and offset of the delta (SnapshotError)
/// but checks neither chain CRC: apply_snapshot_delta adds those, and
/// IngestSession::ingest_with_delta patches with the delta it just built.
FamilyStore patch_family_store(const FamilyStore& base,
                               const SnapshotDelta& delta);

/// Deterministic serialization: equal deltas produce byte-equal buffers.
std::vector<char> serialize_delta(const SnapshotDelta& delta);

/// Parses and structurally validates a serialized delta; throws
/// SnapshotError on any corruption (bad magic, version skew, truncation,
/// CRC mismatch, inconsistent sections). Semantic validation against a
/// concrete base happens in apply_snapshot_delta.
SnapshotDelta deserialize_delta(const std::vector<char>& bytes);

/// serialize_delta + the same crash-safe publish as write_snapshot (temp
/// file, fsync, rename, directory fsync). Throws std::runtime_error on I/O
/// failure, leaving any previous file at `path` intact.
void write_delta(const SnapshotDelta& delta, const std::string& path);

/// One fread of the whole file + deserialize_delta. Throws SnapshotError
/// for anything malformed, SnapshotIoError when the file cannot be opened
/// or read in full.
SnapshotDelta load_delta(const std::string& path);

/// Canonical on-disk name of chain link `index` (1-based):
/// "<base_path>.delta.<index>".
std::string delta_chain_path(const std::string& base_path, u64 index);

struct DeltaChainTip {
  FamilyStore store;       ///< base with every chain delta applied
  u64 chain_length = 0;    ///< deltas applied (0: the base itself)
};

/// Loads `base_path` and applies `<base>.delta.1`, `.delta.2`, ... until
/// the first missing link (a gap ends the chain; later orphans are
/// ignored). A corrupt or out-of-order delta throws SnapshotError — the
/// prefix of the chain before it is still loadable, and the base is never
/// modified.
DeltaChainTip follow_delta_chain(const std::string& base_path);

}  // namespace gpclust::store
