#include "store/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "seq/kmer_postings.hpp"
#include "store/framing.hpp"
#include "store/signature.hpp"
#include "util/crc32.hpp"
#include "util/prime.hpp"

namespace gpclust::store {

namespace {

// On-disk layout (all integers little-endian host order; the snapshot is
// a same-architecture artifact like the binary CSR graphs).
constexpr std::array<char, 8> kMagic = {'G', 'P', 'C', 'L', 'F', 'I', 'D', 'X'};
// Version 2 added the signature sections (SIG_META, SIGNATURES). Version-1
// files are still readable: their signatures are rebuilt on load from the
// postings with the default parameters (store/signature.hpp).
constexpr u32 kFormatVersion = 2;
constexpr u32 kFormatVersionV1 = 1;

using framing::aligned;
using framing::Header;
using framing::kAlignment;
using framing::SectionDesc;

// Section ids, in file order. META holds the scalar fields plus the
// element counts the loader uses to size-check every other section.
enum SectionId : u32 {
  kMeta = 1,
  kSeqOffsets = 2,
  kResidues = 3,
  kIdOffsets = 4,
  kIds = 5,
  kFamilyOf = 6,
  kRepOffsets = 7,
  kRepresentatives = 8,
  kPostings = 9,
  kSigMeta = 10,     ///< version >= 2
  kSignatures = 11,  ///< version >= 2
};
constexpr u32 kNumSections = 11;
constexpr u32 kNumSectionsV1 = 9;

struct Meta {
  u64 kmer_k;
  u64 num_sequences;
  u64 num_families;
  u64 num_representatives;
  u64 num_postings;
  u64 residue_bytes;
  u64 id_bytes;
};
static_assert(sizeof(Meta) == 56);

struct SigMeta {
  u64 num_hashes;
  u64 seed;
};
static_assert(sizeof(SigMeta) == 16);

[[noreturn]] void corrupt(const std::string& what) {
  throw SnapshotError("snapshot: " + what);
}

/// Bounds- and CRC-checked view of one section of the raw buffer.
struct SectionReader {
  const std::vector<char>* bytes;
  std::vector<SectionDesc> sections;  // indexed by SectionId - 1

  const SectionDesc& desc(SectionId id) const {
    return sections[static_cast<std::size_t>(id) - 1];
  }

  /// Size-checks the section against `count` elements of the container's
  /// value type, then resizes and copies — the check precedes the
  /// allocation so an inconsistent META can never trigger a huge resize.
  template <typename Vec>
  void read_into(SectionId id, u64 count, Vec& out) const {
    using T = typename Vec::value_type;
    const SectionDesc& s = desc(id);
    if (count > s.size_bytes / sizeof(T) || s.size_bytes != count * sizeof(T)) {
      corrupt("section " + std::to_string(id) + " holds " +
              std::to_string(s.size_bytes) + " bytes, expected " +
              std::to_string(count) + " x " + std::to_string(sizeof(T)));
    }
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), bytes->data() + s.offset, s.size_bytes);
    }
  }
};

}  // namespace

FamilyStore build_family_store(const seq::SequenceSet& sequences,
                               const std::vector<u32>& labels,
                               const StoreBuildConfig& config) {
  GPCLUST_CHECK(sequences.size() == labels.size(),
                "one family label per sequence required");
  GPCLUST_CHECK(config.k >= 2 && config.k <= 12, "k must be in [2, 12]");
  GPCLUST_CHECK(config.reps_per_family >= 1,
                "need at least one representative per family");

  FamilyStore out;
  out.kmer_k = config.k;

  // Flat sequence + id storage.
  out.seq_offsets.reserve(sequences.size() + 1);
  out.id_offsets.reserve(sequences.size() + 1);
  out.seq_offsets.push_back(0);
  out.id_offsets.push_back(0);
  for (const seq::ProteinSequence& s : sequences) {
    out.residues += s.residues;
    out.ids += s.id;
    out.seq_offsets.push_back(out.residues.size());
    out.id_offsets.push_back(out.ids.size());
  }
  out.family_of = labels;

  u32 num_families = 0;
  for (u32 label : labels) num_families = std::max(num_families, label + 1);
  out.num_families = num_families;

  // Representatives: per family the longest members (smallest index on
  // ties), capped at reps_per_family — deterministic for a given input.
  std::vector<std::vector<u32>> members(num_families);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    members[labels[i]].push_back(static_cast<u32>(i));
  }
  out.rep_offsets.push_back(0);
  for (auto& family : members) {
    select_representatives(family, sequences, config.reps_per_family);
    out.representatives.insert(out.representatives.end(), family.begin(),
                               family.end());
    out.rep_offsets.push_back(out.representatives.size());
  }

  rebuild_rep_postings(out);

  out.sig_num_hashes =
      config.sig_hashes > 0 ? config.sig_hashes : kDefaultSignatureHashes;
  out.sig_seed = config.sig_seed > 0 ? config.sig_seed : kDefaultSignatureSeed;
  build_rep_signatures(out);
  return out;
}

void select_representatives(std::vector<u32>& members,
                            const seq::SequenceSet& sequences,
                            std::size_t keep) {
  std::sort(members.begin(), members.end(), [&](u32 a, u32 b) {
    return std::pair(sequences[a].length(), b) >
           std::pair(sequences[b].length(), a);
  });
  members.resize(std::min(members.size(), keep));
  // Ascending rep ids within the family keep the postings sort stable
  // across rebuilds regardless of length ties.
  std::sort(members.begin(), members.end());
}

void rebuild_rep_postings(FamilyStore& store) {
  // Family-level k-mer postings over the representatives: the same
  // (code, id)-grouped first-occurrence postings align/kmer_index seeds
  // from, with representative indices as ids.
  store.postings.clear();
  seq::group_kmer_postings<RepPosting>(
      store.representatives.size(), store.kmer_k,
      [&store](std::size_t r) {
        return store.sequence(store.representatives[r]);
      },
      [&store](std::size_t total) {
        store.postings.resize(total);
        return store.postings.data();
      });
}

namespace {

/// The snapshot's sections in file order, viewing the store's arrays (and
/// the two scalar records, which the caller owns).
struct SnapshotPayloads {
  Meta meta;
  SigMeta sig_meta;
  std::array<framing::Payload, kNumSections> payloads;

  explicit SnapshotPayloads(const FamilyStore& store)
      : meta{store.kmer_k,
             store.num_sequences(),
             store.num_families,
             store.representatives.size(),
             store.postings.size(),
             store.residues.size(),
             store.ids.size()},
        sig_meta{store.sig_num_hashes, store.sig_seed},
        payloads{{
            {kMeta, &meta, sizeof(meta)},
            {kSeqOffsets, store.seq_offsets.data(),
             store.seq_offsets.size() * sizeof(u64)},
            {kResidues, store.residues.data(), store.residues.size()},
            {kIdOffsets, store.id_offsets.data(),
             store.id_offsets.size() * sizeof(u64)},
            {kIds, store.ids.data(), store.ids.size()},
            {kFamilyOf, store.family_of.data(),
             store.family_of.size() * sizeof(u32)},
            {kRepOffsets, store.rep_offsets.data(),
             store.rep_offsets.size() * sizeof(u64)},
            {kRepresentatives, store.representatives.data(),
             store.representatives.size() * sizeof(u32)},
            {kPostings, store.postings.data(),
             store.postings.size() * sizeof(RepPosting)},
            {kSigMeta, &sig_meta, sizeof(sig_meta)},
            {kSignatures, store.signatures.data(),
             store.signatures.size() * sizeof(u64)},
        }} {
    GPCLUST_CHECK(store.sig_num_hashes >= 1,
                  "store has no signatures (build_rep_signatures first)");
    GPCLUST_CHECK(store.signatures.size() ==
                      store.representatives.size() * store.sig_num_hashes,
                  "signature array does not match representative count");
  }
  SnapshotPayloads(const SnapshotPayloads&) = delete;
  SnapshotPayloads& operator=(const SnapshotPayloads&) = delete;
};

}  // namespace

std::vector<char> serialize_snapshot(const FamilyStore& store) {
  const SnapshotPayloads sections(store);
  return framing::frame_bytes(kMagic, kFormatVersion, sections.payloads);
}

u32 snapshot_crc(const FamilyStore& store) {
  const SnapshotPayloads sections(store);
  return framing::frame_crc(kMagic, kFormatVersion, sections.payloads);
}

FamilyStore deserialize_snapshot(const std::vector<char>& bytes) {
  // 1. Header: magic, version, section count.
  if (bytes.size() < sizeof(Header)) corrupt("file shorter than the header");
  Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic.data(), kMagic.size()) != 0) {
    corrupt("bad magic (not a gpclust family-index snapshot)");
  }
  if (header.version != kFormatVersion && header.version != kFormatVersionV1) {
    corrupt("unsupported format version " + std::to_string(header.version) +
            " (this build reads versions " + std::to_string(kFormatVersionV1) +
            "-" + std::to_string(kFormatVersion) + ")");
  }
  const u32 num_sections =
      header.version == kFormatVersionV1 ? kNumSectionsV1 : kNumSections;
  if (header.section_count != num_sections) {
    corrupt("expected " + std::to_string(num_sections) + " sections, found " +
            std::to_string(header.section_count));
  }

  // 2. Section table: bounds first, then payload CRCs.
  const std::size_t table_end =
      sizeof(Header) + num_sections * sizeof(SectionDesc);
  if (bytes.size() < table_end) corrupt("truncated section table");
  SectionReader reader{&bytes, std::vector<SectionDesc>(num_sections)};
  std::memcpy(reader.sections.data(), bytes.data() + sizeof(Header),
              num_sections * sizeof(SectionDesc));
  for (std::size_t i = 0; i < num_sections; ++i) {
    const SectionDesc& s = reader.sections[i];
    if (s.id != i + 1) corrupt("section table out of order");
    if (s.offset % kAlignment != 0 || s.offset < table_end ||
        s.offset > bytes.size() || s.size_bytes > bytes.size() - s.offset) {
      corrupt("section " + std::to_string(s.id) + " out of bounds");
    }
    if (util::crc32(bytes.data() + s.offset, s.size_bytes) != s.crc) {
      corrupt("CRC mismatch in section " + std::to_string(s.id));
    }
  }

  // 2b. Canonical layout: sections contiguous in id order, alignment
  // padding zeroed, nothing after the last section. This pins one byte
  // stream per store (the byte-identity guarantee) and makes a flip
  // anywhere in the file — payload or padding — detectable.
  std::size_t expected_offset = aligned(table_end);
  for (const SectionDesc& s : reader.sections) {
    if (s.offset != expected_offset) {
      corrupt("section " + std::to_string(s.id) + " not contiguous");
    }
    for (std::size_t pos = s.offset + s.size_bytes;
         pos < s.offset + aligned(s.size_bytes); ++pos) {
      if (bytes[pos] != 0) corrupt("nonzero alignment padding");
    }
    expected_offset += aligned(s.size_bytes);
  }
  if (bytes.size() != expected_offset) {
    corrupt("trailing bytes after the last section");
  }

  // 3. Payloads, sized by META.
  const SectionDesc& meta_desc = reader.desc(kMeta);
  if (meta_desc.size_bytes != sizeof(Meta)) corrupt("META section malformed");
  Meta meta;
  std::memcpy(&meta, bytes.data() + meta_desc.offset, sizeof(Meta));
  if (meta.kmer_k < 2 || meta.kmer_k > 12) corrupt("k out of domain");
  if (meta.num_sequences + 1 == 0 || meta.num_families + 1 == 0) {
    corrupt("element counts overflow");
  }

  FamilyStore store;
  store.kmer_k = meta.kmer_k;
  store.num_families = meta.num_families;
  reader.read_into(kSeqOffsets, meta.num_sequences + 1, store.seq_offsets);
  reader.read_into(kResidues, meta.residue_bytes, store.residues);
  reader.read_into(kIdOffsets, meta.num_sequences + 1, store.id_offsets);
  reader.read_into(kIds, meta.id_bytes, store.ids);
  reader.read_into(kFamilyOf, meta.num_sequences, store.family_of);
  reader.read_into(kRepOffsets, meta.num_families + 1, store.rep_offsets);
  reader.read_into(kRepresentatives, meta.num_representatives,
                   store.representatives);
  reader.read_into(kPostings, meta.num_postings, store.postings);

  if (header.version >= kFormatVersion) {
    const SectionDesc& sig_desc = reader.desc(kSigMeta);
    if (sig_desc.size_bytes != sizeof(SigMeta)) {
      corrupt("SIG_META section malformed");
    }
    SigMeta sig_meta;
    std::memcpy(&sig_meta, bytes.data() + sig_desc.offset, sizeof(SigMeta));
    if (sig_meta.num_hashes < 1 || sig_meta.num_hashes > (1u << 20)) {
      corrupt("signature width out of domain");
    }
    store.sig_num_hashes = sig_meta.num_hashes;
    store.sig_seed = sig_meta.seed;
    reader.read_into(kSignatures,
                     meta.num_representatives * sig_meta.num_hashes,
                     store.signatures);
    for (u64 slot : store.signatures) {
      if (slot >= util::kMersenne61 && slot != kEmptySignatureSlot) {
        corrupt("signature slot outside the hash range");
      }
    }
  }

  // 4. Cross-section invariants, so a loaded store can be indexed without
  // bounds checks downstream. (CRCs catch random corruption; these catch a
  // snapshot that was valid CRC-wise but written by a buggy builder.)
  auto check_offsets = [&](const std::vector<u64>& offsets, u64 limit,
                           const char* what) {
    if (offsets.front() != 0 || offsets.back() != limit) {
      corrupt(std::string(what) + " offsets do not span the blob");
    }
    if (!std::is_sorted(offsets.begin(), offsets.end())) {
      corrupt(std::string(what) + " offsets not monotonic");
    }
  };
  check_offsets(store.seq_offsets, meta.residue_bytes, "sequence");
  check_offsets(store.id_offsets, meta.id_bytes, "id");
  check_offsets(store.rep_offsets, meta.num_representatives, "representative");
  for (u32 family : store.family_of) {
    if (family >= meta.num_families) corrupt("family label out of range");
  }
  for (u32 rep : store.representatives) {
    if (rep >= meta.num_sequences) corrupt("representative out of range");
  }
  for (const RepPosting& p : store.postings) {
    if (p.rep >= meta.num_representatives) corrupt("posting rep out of range");
  }
  if (!std::is_sorted(store.postings.begin(), store.postings.end(),
                      [](const RepPosting& x, const RepPosting& y) {
                        return std::pair(x.code, x.rep) <
                               std::pair(y.code, y.rep);
                      })) {
    corrupt("postings not sorted by (code, rep)");
  }

  // 5. Version-1 migration: the file predates signatures, so rebuild them
  // from the (now fully validated) postings with the default parameters —
  // byte-identical to what build_family_store would have written.
  if (header.version == kFormatVersionV1) {
    store.sig_num_hashes = kDefaultSignatureHashes;
    store.sig_seed = kDefaultSignatureSeed;
    build_rep_signatures(store);
  }
  return store;
}

void write_snapshot(const FamilyStore& store, const std::string& path) {
  framing::publish_file(serialize_snapshot(store), path, "snapshot");
}

FamilyStore load_snapshot(const std::string& path) {
  return deserialize_snapshot(framing::read_file(path, "snapshot"));
}

}  // namespace gpclust::store
