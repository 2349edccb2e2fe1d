#pragma once
// Persistent family-index store (DESIGN.md §10) — the artifact boundary
// between the one-shot clustering pipeline and the query-serving layer:
// cluster once with gpClust, persist the families with
// `gpclust-build-index`, then classify streams of new ORFs against them
// with `gpclust-query` / serve::QueryService without ever reclustering.
//
// The snapshot is a versioned, checksummed flat binary file:
//
//   header     magic "GPCLFIDX", format version, section count
//   section    one descriptor per section: id, byte offset, byte size,
//   table      CRC-32 of the payload bytes
//   payloads   8-byte-aligned flat arrays, zero padding between sections
//
// Properties the tests enforce:
//   * deterministic — writing the same FamilyStore twice produces
//     byte-identical files (no timestamps, no pointers, map-ordered
//     sections, zeroed padding);
//   * self-validating — magic, version, bounds and every section CRC are
//     checked on load; any corruption (truncation, bit flip, wrong
//     magic/version) yields a typed SnapshotError, never a crash or a
//     partially-initialized index;
//   * load is cheap — one fread of the whole file, then one bounds-checked
//     memcpy per section into flat arrays (no per-record allocation or
//     parsing).

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "seq/sequence.hpp"
#include "util/common.hpp"

namespace gpclust::store {

/// Typed load/validation failure: wrong magic or version, truncated file,
/// CRC mismatch, inconsistent section table or cross-section invariants.
/// A ParseError subtype so generic "malformed input" handlers still catch
/// it.
class SnapshotError : public ParseError {
 public:
  using ParseError::ParseError;
};

/// Typed I/O failure distinct from corruption: the snapshot file is
/// missing, unreadable, or the read came up short. Callers (notably
/// `gpclust-query`) branch on this vs SnapshotError to tell "wrong path"
/// from "damaged index".
class SnapshotIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One (k-mer, representative) posting of the family-level seed index.
/// Sorted by (code, rep); `pos` is the k-mer's first occurrence in the
/// representative (seed diagonals, mirroring align::CandidatePair::diag).
struct RepPosting {
  u64 code = 0;  ///< base-kNumResidues packed k-mer
  u32 rep = 0;   ///< index into FamilyStore::representatives
  u32 pos = 0;   ///< first occurrence in the representative's residues

  friend bool operator==(const RepPosting&, const RepPosting&) = default;
};
static_assert(sizeof(RepPosting) == 16, "snapshot layout is fixed");

struct StoreBuildConfig {
  /// Seed k-mer length of the family-level postings index; queries must
  /// use the same k (recorded in the snapshot). Same [2, 12] domain as
  /// align::KmerIndexConfig.
  std::size_t k = 5;

  /// Representatives kept per family: the longest members (ties broken by
  /// smallest sequence index — deterministic). Singleton families keep
  /// their only member.
  std::size_t reps_per_family = 2;

  /// Min-hash signature width per representative (store/signature.hpp) —
  /// the sketch the serve tier's bucketed seed index banding slices.
  /// 0 defaults to kDefaultSignatureHashes.
  std::size_t sig_hashes = 0;

  /// Derivation seed of the signature permutation family. 0 defaults to
  /// kDefaultSignatureSeed.
  u64 sig_seed = 0;
};

/// The in-memory image of one snapshot: flat arrays only, loadable with
/// one memcpy per section. Sequence `i`'s residues are
/// `residues[seq_offsets[i] .. seq_offsets[i+1])`, its FASTA id
/// `ids[id_offsets[i] .. id_offsets[i+1])`, its family `family_of[i]`.
/// Family `f`'s representatives are
/// `representatives[rep_offsets[f] .. rep_offsets[f+1])` (sequence
/// indices).
struct FamilyStore {
  u64 kmer_k = 0;
  u64 num_families = 0;

  std::vector<u64> seq_offsets;         ///< num_sequences + 1
  std::string residues;                 ///< concatenated residue letters
  std::vector<u64> id_offsets;          ///< num_sequences + 1
  std::string ids;                      ///< concatenated FASTA ids
  std::vector<u32> family_of;           ///< per sequence
  std::vector<u64> rep_offsets;         ///< num_families + 1
  std::vector<u32> representatives;     ///< sequence indices
  std::vector<RepPosting> postings;     ///< sorted by (code, rep)

  /// Banded min-hash sketch parameters + data (store/signature.hpp):
  /// representative r's signature is
  /// `signatures[r * sig_num_hashes .. (r+1) * sig_num_hashes)`. Built at
  /// snapshot time by build_family_store; version-1 snapshots (which
  /// predate signatures) get them reconstructed on load with the default
  /// parameters — the bytes are identical either way.
  u64 sig_num_hashes = 0;
  u64 sig_seed = 0;
  std::vector<u64> signatures;          ///< rep-major, sig_num_hashes per rep

  std::size_t num_sequences() const {
    return seq_offsets.empty() ? 0 : seq_offsets.size() - 1;
  }
  std::string_view sequence(std::size_t i) const {
    return std::string_view(residues).substr(
        seq_offsets[i], seq_offsets[i + 1] - seq_offsets[i]);
  }
  std::string_view id(std::size_t i) const {
    return std::string_view(ids).substr(id_offsets[i],
                                        id_offsets[i + 1] - id_offsets[i]);
  }
  /// Representative sequence indices of family `f`.
  std::span<const u32> family_reps(std::size_t f) const {
    return std::span<const u32>(representatives)
        .subspan(rep_offsets[f], rep_offsets[f + 1] - rep_offsets[f]);
  }

  friend bool operator==(const FamilyStore&, const FamilyStore&) = default;
};

/// Builds the store from clustered sequences. `labels[i]` is the family of
/// `sequences[i]` (e.g. core::Clustering::labels()); families are label
/// values `0 .. max(labels)`. Throws InvalidArgument on size mismatch or
/// an out-of-domain k.
FamilyStore build_family_store(const seq::SequenceSet& sequences,
                               const std::vector<u32>& labels,
                               const StoreBuildConfig& config = {});

/// The representative rule of build_family_store, shared with the ingest
/// session's fresh families: keeps the `keep` longest of `members`
/// (smallest sequence index on length ties) and leaves them ascending.
void select_representatives(std::vector<u32>& members,
                            const seq::SequenceSet& sequences,
                            std::size_t keep);

/// Rebuilds `store.postings` from `store.representatives` and the residue
/// blob — the sort-based layout build_family_store writes (per-rep distinct
/// first occurrences, one global (code, rep) sort). Shared with the delta
/// apply path (store/delta.hpp) so an applied delta's postings are
/// byte-identical to a from-scratch build's.
void rebuild_rep_postings(FamilyStore& store);

/// Serializes the store. Deterministic: equal stores produce byte-equal
/// buffers.
std::vector<char> serialize_snapshot(const FamilyStore& store);

/// CRC-32 of serialize_snapshot(store), computed straight from the
/// in-memory arrays without materializing the buffer: each section CRC
/// once (the same routine the serializer's section table uses), folded
/// into the whole-file CRC with util::crc32_combine. The chain CRCs of
/// snapshot deltas (delta.hpp) are this value.
u32 snapshot_crc(const FamilyStore& store);

/// Parses and fully validates a serialized snapshot; throws SnapshotError
/// on any corruption. Reads the current format (version 2) and the
/// pre-signature version 1, whose signatures are reconstructed on load.
/// `serialize(deserialize(bytes)) == bytes` for every valid
/// current-version buffer; a version-1 buffer round-trips to the
/// byte-identical version-2 image of the same store (the migration path).
FamilyStore deserialize_snapshot(const std::vector<char>& bytes);

/// serialize_snapshot, then a crash-safe publish: temp file in the same
/// directory, fsync, rename over `path`, directory fsync. A crash or a
/// failure leaves the previous file at `path` intact and no temp file
/// behind. Throws std::runtime_error on I/O failure.
void write_snapshot(const FamilyStore& store, const std::string& path);

/// One fread of the whole file + deserialize_snapshot. Throws
/// SnapshotError for anything malformed, SnapshotIoError when the file
/// cannot be opened or read in full.
FamilyStore load_snapshot(const std::string& path);

}  // namespace gpclust::store
