#include "store/delta.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

#include "seq/kmer_postings.hpp"
#include "store/framing.hpp"
#include "util/crc32.hpp"

namespace gpclust::store {

namespace {

// On-disk layout mirrors the snapshot's framing discipline (snapshot.cpp):
// header, CRC'd section table, 8-byte-aligned payloads, canonical layout.
constexpr std::array<char, 8> kMagic = {'G', 'P', 'C', 'L', 'D', 'L', 'T', 'A'};
constexpr u32 kFormatVersion = 1;

using framing::aligned;
using framing::Header;
using framing::kAlignment;
using framing::SectionDesc;

enum SectionId : u32 {
  kDeltaMeta = 1,
  kSeqOffsets = 2,
  kResidues = 3,
  kIdOffsets = 4,
  kIds = 5,
  kNewFamilyOf = 6,
  kMovedSeq = 7,
  kMovedFamily = 8,
  kFamilySource = 9,
  kRetired = 10,
  kFreshRepOffsets = 11,
  kFreshReps = 12,
  kSignatures = 13,
};
constexpr u32 kNumSections = 13;

struct DeltaMeta {
  u64 chain_index;
  u64 num_base_sequences;
  u64 num_base_families;
  u64 num_families;
  u64 num_new_sequences;
  u64 new_residue_bytes;
  u64 new_id_bytes;
  u64 num_moved;
  u64 num_retired;
  u64 num_fresh_families;
  u64 num_fresh_reps;
  u64 kmer_k;
  u64 sig_num_hashes;
  u64 sig_seed;
  u32 base_crc;
  u32 result_crc;
};
static_assert(sizeof(DeltaMeta) == 120);

[[noreturn]] void corrupt(const std::string& what) {
  throw SnapshotError("snapshot delta: " + what);
}

/// Per-family member lists of a store, members ascending (family_of is
/// scanned in sequence order).
std::vector<std::vector<u32>> family_members(const FamilyStore& store) {
  std::vector<std::vector<u32>> members(store.num_families);
  for (std::size_t i = 0; i < store.family_of.size(); ++i) {
    members[store.family_of[i]].push_back(static_cast<u32>(i));
  }
  return members;
}

/// The chain link's cheap half: the delta was built against a base of
/// exactly this shape.
void check_chain_shape(const FamilyStore& base, const SnapshotDelta& d) {
  if (d.num_base_sequences != base.num_sequences() ||
      d.num_base_families != base.num_families || d.kmer_k != base.kmer_k ||
      d.sig_num_hashes != base.sig_num_hashes ||
      d.sig_seed != base.sig_seed) {
    corrupt("delta " + std::to_string(d.chain_index) +
            " does not match the base's shape (out-of-order chain?)");
  }
}

constexpr u32 kRetiredRep = 0xffffffffu;

bool by_code_rep(const RepPosting& x, const RepPosting& y) {
  return x.code != y.code ? x.code < y.code : x.rep < y.rep;
}

/// out.postings from the base's postings: carried reps keep theirs under
/// their new rep ids (`base_rep_image`, kRetiredRep for retired reps), and
/// only the fresh reps (`fresh_rep_ids`, ascending new ids) are indexed
/// anew and merged in. The merge is order-preserving only if the carried
/// remap is monotone; a delta that permutes carried families falls back to
/// the from-scratch rebuild_rep_postings. Either way the result is the
/// (code, rep)-sorted array build_family_store writes.
void patch_rep_postings(const FamilyStore& base,
                        const std::vector<u32>& base_rep_image,
                        const std::vector<u32>& fresh_rep_ids,
                        FamilyStore& out) {
  u32 last = 0;
  bool first = true;
  for (const u32 r : base_rep_image) {
    if (r == kRetiredRep) continue;
    if (!first && r <= last) {
      rebuild_rep_postings(out);
      return;
    }
    last = r;
    first = false;
  }

  std::vector<RepPosting> fresh;
  if (!fresh_rep_ids.empty()) {
    seq::group_kmer_postings<RepPosting>(
        fresh_rep_ids.size(), out.kmer_k,
        [&](std::size_t i) {
          return out.sequence(out.representatives[fresh_rep_ids[i]]);
        },
        [&fresh](std::size_t total) {
          fresh.resize(total);
          return fresh.data();
        });
    for (RepPosting& p : fresh) p.rep = fresh_rep_ids[p.rep];
  }

  out.postings.clear();
  out.postings.reserve(base.postings.size() + fresh.size());
  auto next_fresh = fresh.begin();
  for (const RepPosting& p : base.postings) {
    const u32 rep = base_rep_image[p.rep];
    if (rep == kRetiredRep) continue;
    const RepPosting carried{p.code, rep, p.pos};
    while (next_fresh != fresh.end() && by_code_rep(*next_fresh, carried)) {
      out.postings.push_back(*next_fresh++);
    }
    out.postings.push_back(carried);
  }
  out.postings.insert(out.postings.end(), next_fresh, fresh.end());
}

}  // namespace

SnapshotDelta build_snapshot_delta(const FamilyStore& base,
                                   const FamilyStore& next, u64 chain_index) {
  const std::size_t base_n = base.num_sequences();
  GPCLUST_CHECK(chain_index >= 1, "chain indices are 1-based");
  GPCLUST_CHECK(next.num_sequences() >= base_n,
                "next snapshot has fewer sequences than the base");
  GPCLUST_CHECK(next.kmer_k == base.kmer_k &&
                    next.sig_num_hashes == base.sig_num_hashes &&
                    next.sig_seed == base.sig_seed,
                "base and next snapshots disagree on k or signature params");
  GPCLUST_CHECK(
      std::equal(base.seq_offsets.begin(), base.seq_offsets.end(),
                 next.seq_offsets.begin()) &&
          std::equal(base.id_offsets.begin(), base.id_offsets.end(),
                     next.id_offsets.begin()) &&
          next.residues.compare(0, base.residues.size(), base.residues) == 0 &&
          next.ids.compare(0, base.ids.size(), base.ids) == 0,
      "next snapshot does not extend the base's sequence prefix");

  SnapshotDelta d;
  d.chain_index = chain_index;
  d.num_base_sequences = base_n;
  d.num_base_families = base.num_families;
  d.num_families = next.num_families;
  d.kmer_k = next.kmer_k;
  d.sig_num_hashes = next.sig_num_hashes;
  d.sig_seed = next.sig_seed;

  // Appended sequences, rebased to delta-local offsets.
  const u64 res_base = base.residues.size();
  const u64 id_base = base.ids.size();
  d.seq_offsets.reserve(next.num_sequences() - base_n + 1);
  d.id_offsets.reserve(next.num_sequences() - base_n + 1);
  for (std::size_t i = base_n; i <= next.num_sequences(); ++i) {
    d.seq_offsets.push_back(next.seq_offsets[i] - res_base);
    d.id_offsets.push_back(next.id_offsets[i] - id_base);
  }
  d.residues = next.residues.substr(res_base);
  d.ids = next.ids.substr(id_base);
  d.new_family_of.assign(next.family_of.begin() + base_n,
                         next.family_of.end());

  // Family sourcing: a post-batch family carries a pre-batch family
  // forward iff their memberships are identical — then (and only then)
  // its representative list and signature rows are the base's verbatim.
  const auto base_members = family_members(base);
  const auto next_members = family_members(next);
  d.family_source.assign(next.num_families, SnapshotDelta::kFreshFamily);
  std::vector<i32> image_of(base.num_families, -1);  // base family -> next
  for (std::size_t f = 0; f < next_members.size(); ++f) {
    const auto& m = next_members[f];
    if (m.empty() || m.front() >= base_n) continue;
    const u32 b = base.family_of[m.front()];
    if (m == base_members[b]) {
      d.family_source[f] = static_cast<i32>(b);
      image_of[b] = static_cast<i32>(f);
    }
  }
  for (u32 b = 0; b < base.num_families; ++b) {
    if (image_of[b] < 0) d.retired.push_back(b);
  }

  // Pre-batch sequences not covered by the source map.
  for (std::size_t s = 0; s < base_n; ++s) {
    const i32 f = image_of[base.family_of[s]];
    if (f < 0 || static_cast<u32>(f) != next.family_of[s]) {
      d.moved_seq.push_back(static_cast<u32>(s));
      d.moved_family.push_back(next.family_of[s]);
    }
  }

  // Fresh families: full representative lists + signature rows.
  d.fresh_rep_offsets.push_back(0);
  for (std::size_t f = 0; f < next.num_families; ++f) {
    if (d.family_source[f] != SnapshotDelta::kFreshFamily) continue;
    for (u64 r = next.rep_offsets[f]; r < next.rep_offsets[f + 1]; ++r) {
      d.fresh_reps.push_back(next.representatives[r]);
      d.signatures.insert(
          d.signatures.end(),
          next.signatures.begin() + static_cast<std::ptrdiff_t>(
                                        r * next.sig_num_hashes),
          next.signatures.begin() + static_cast<std::ptrdiff_t>(
                                        (r + 1) * next.sig_num_hashes));
    }
    d.fresh_rep_offsets.push_back(d.fresh_reps.size());
  }

  d.base_crc = snapshot_crc(base);
  d.result_crc = snapshot_crc(next);
  return d;
}

FamilyStore apply_snapshot_delta(const FamilyStore& base,
                                 const SnapshotDelta& d) {
  // Chain link: this delta was built against exactly these base bytes.
  // The base CRC is recomputed from the store in hand, never trusted from
  // a cache.
  check_chain_shape(base, d);
  if (snapshot_crc(base) != d.base_crc) {
    corrupt("delta " + std::to_string(d.chain_index) +
            " chains from a different base snapshot (out-of-order or "
            "edited chain)");
  }

  FamilyStore out = patch_family_store(base, d);

  // Byte-exactness proof: the applied store must serialize to the exact
  // bytes the builder hashed. This closes every remaining gap — a delta
  // that validates structurally but was built by a buggy or mismatched
  // builder cannot produce silently divergent state.
  if (snapshot_crc(out) != d.result_crc) {
    corrupt("applied delta " + std::to_string(d.chain_index) +
            " does not reproduce the recorded result snapshot");
  }
  return out;
}

FamilyStore patch_family_store(const FamilyStore& base,
                               const SnapshotDelta& d) {
  check_chain_shape(base, d);

  // 1. Local consistency of the delta's own arrays.
  const std::size_t num_new = d.num_new_sequences();
  const std::size_t num_seq = base.num_sequences() + num_new;
  auto check_offsets = [](const std::vector<u64>& offsets, u64 limit,
                          const char* what) {
    if (offsets.empty() || offsets.front() != 0 || offsets.back() != limit ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
      corrupt(std::string("delta ") + what + " offsets malformed");
    }
  };
  check_offsets(d.seq_offsets, d.residues.size(), "sequence");
  check_offsets(d.id_offsets, d.ids.size(), "id");
  if (d.moved_seq.size() != d.moved_family.size()) {
    corrupt("moved arrays disagree in length");
  }
  if (d.family_source.size() != d.num_families) {
    corrupt("family source map does not cover every family");
  }
  if (num_seq > 0xffffffffull) corrupt("sequence count overflows u32");

  FamilyStore out;
  out.kmer_k = d.kmer_k;
  out.num_families = d.num_families;
  out.sig_num_hashes = d.sig_num_hashes;
  out.sig_seed = d.sig_seed;

  // 2. Sequences: base prefix + appended batch.
  out.seq_offsets = base.seq_offsets;
  out.id_offsets = base.id_offsets;
  out.residues = base.residues + d.residues;
  out.ids = base.ids + d.ids;
  for (std::size_t i = 1; i <= num_new; ++i) {
    out.seq_offsets.push_back(base.residues.size() + d.seq_offsets[i]);
    out.id_offsets.push_back(base.ids.size() + d.id_offsets[i]);
  }

  // 3. Family labels: carried families relabel via the source map's
  // inverse, moved sequences override, new sequences append. Every member
  // of a retired family must be explicitly moved.
  std::vector<i32> image_of(base.num_families, -1);
  for (std::size_t f = 0; f < d.family_source.size(); ++f) {
    const i32 b = d.family_source[f];
    if (b == SnapshotDelta::kFreshFamily) continue;
    if (b < 0 || static_cast<u64>(b) >= base.num_families) {
      corrupt("family source out of range");
    }
    if (image_of[b] >= 0) corrupt("base family carried forward twice");
    image_of[b] = static_cast<i32>(f);
  }
  {
    std::vector<u32> expected_retired;
    for (u32 b = 0; b < base.num_families; ++b) {
      if (image_of[b] < 0) expected_retired.push_back(b);
    }
    if (d.retired != expected_retired) {
      corrupt("retired list disagrees with the family source map");
    }
  }
  out.family_of.resize(num_seq);
  for (std::size_t s = 0; s < base.num_sequences(); ++s) {
    out.family_of[s] = image_of[base.family_of[s]] >= 0
                           ? static_cast<u32>(image_of[base.family_of[s]])
                           : 0xffffffffu;  // must be overridden below
  }
  for (std::size_t i = 0; i < d.moved_seq.size(); ++i) {
    if (d.moved_seq[i] >= base.num_sequences() ||
        d.moved_family[i] >= d.num_families) {
      corrupt("moved entry out of range");
    }
    out.family_of[d.moved_seq[i]] = d.moved_family[i];
  }
  for (std::size_t i = 0; i < num_new; ++i) {
    if (d.new_family_of[i] >= d.num_families) {
      corrupt("new-sequence family out of range");
    }
    out.family_of[base.num_sequences() + i] = d.new_family_of[i];
  }
  for (u32 f : out.family_of) {
    if (f == 0xffffffffu) {
      corrupt("member of a retired family was not relabeled");
    }
  }

  // 4. Representatives + signatures: carried families copy the base's rows
  // verbatim; fresh families take theirs from the delta.
  check_offsets(d.fresh_rep_offsets, d.fresh_reps.size(),
                "fresh representative");
  if (d.signatures.size() != d.fresh_reps.size() * d.sig_num_hashes) {
    corrupt("signature section does not match the fresh rep count");
  }
  std::vector<u32> base_rep_image(base.representatives.size(), kRetiredRep);
  std::vector<u32> fresh_rep_ids;
  fresh_rep_ids.reserve(d.fresh_reps.size());
  out.rep_offsets.reserve(d.num_families + 1);
  out.rep_offsets.push_back(0);
  std::size_t fresh = 0;
  for (std::size_t f = 0; f < d.num_families; ++f) {
    if (d.family_source[f] == SnapshotDelta::kFreshFamily) {
      if (fresh >= d.num_fresh_families()) {
        corrupt("fresh family count disagrees with the source map");
      }
      for (u64 r = d.fresh_rep_offsets[fresh];
           r < d.fresh_rep_offsets[fresh + 1]; ++r) {
        if (d.fresh_reps[r] >= num_seq) {
          corrupt("fresh representative out of range");
        }
        fresh_rep_ids.push_back(static_cast<u32>(out.representatives.size()));
        out.representatives.push_back(d.fresh_reps[r]);
        out.signatures.insert(
            out.signatures.end(),
            d.signatures.begin() +
                static_cast<std::ptrdiff_t>(r * d.sig_num_hashes),
            d.signatures.begin() +
                static_cast<std::ptrdiff_t>((r + 1) * d.sig_num_hashes));
      }
      ++fresh;
    } else {
      const auto b = static_cast<std::size_t>(d.family_source[f]);
      for (u64 r = base.rep_offsets[b]; r < base.rep_offsets[b + 1]; ++r) {
        base_rep_image[r] = static_cast<u32>(out.representatives.size());
        out.representatives.push_back(base.representatives[r]);
        out.signatures.insert(
            out.signatures.end(),
            base.signatures.begin() +
                static_cast<std::ptrdiff_t>(r * base.sig_num_hashes),
            base.signatures.begin() +
                static_cast<std::ptrdiff_t>((r + 1) * base.sig_num_hashes));
      }
    }
    out.rep_offsets.push_back(out.representatives.size());
  }
  if (fresh != d.num_fresh_families()) {
    corrupt("fresh family count disagrees with the source map");
  }

  // 5. Postings: patched from the base's (store/snapshot.hpp layout).
  patch_rep_postings(base, base_rep_image, fresh_rep_ids, out);
  return out;
}

std::vector<char> serialize_delta(const SnapshotDelta& d) {
  const DeltaMeta meta{d.chain_index,
                       d.num_base_sequences,
                       d.num_base_families,
                       d.num_families,
                       d.num_new_sequences(),
                       d.residues.size(),
                       d.ids.size(),
                       d.moved_seq.size(),
                       d.retired.size(),
                       d.num_fresh_families(),
                       d.fresh_reps.size(),
                       d.kmer_k,
                       d.sig_num_hashes,
                       d.sig_seed,
                       d.base_crc,
                       d.result_crc};

  const framing::Payload payloads[kNumSections] = {
      {kDeltaMeta, &meta, sizeof(meta)},
      {kSeqOffsets, d.seq_offsets.data(), d.seq_offsets.size() * sizeof(u64)},
      {kResidues, d.residues.data(), d.residues.size()},
      {kIdOffsets, d.id_offsets.data(), d.id_offsets.size() * sizeof(u64)},
      {kIds, d.ids.data(), d.ids.size()},
      {kNewFamilyOf, d.new_family_of.data(),
       d.new_family_of.size() * sizeof(u32)},
      {kMovedSeq, d.moved_seq.data(), d.moved_seq.size() * sizeof(u32)},
      {kMovedFamily, d.moved_family.data(),
       d.moved_family.size() * sizeof(u32)},
      {kFamilySource, d.family_source.data(),
       d.family_source.size() * sizeof(i32)},
      {kRetired, d.retired.data(), d.retired.size() * sizeof(u32)},
      {kFreshRepOffsets, d.fresh_rep_offsets.data(),
       d.fresh_rep_offsets.size() * sizeof(u64)},
      {kFreshReps, d.fresh_reps.data(), d.fresh_reps.size() * sizeof(u32)},
      {kSignatures, d.signatures.data(), d.signatures.size() * sizeof(u64)},
  };

  return framing::frame_bytes(kMagic, kFormatVersion, payloads);
}

SnapshotDelta deserialize_delta(const std::vector<char>& bytes) {
  // 1. Header.
  if (bytes.size() < sizeof(Header)) corrupt("file shorter than the header");
  Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic.data(), kMagic.size()) != 0) {
    corrupt("bad magic (not a gpclust snapshot delta)");
  }
  if (header.version != kFormatVersion) {
    corrupt("unsupported delta format version " +
            std::to_string(header.version) + " (this build reads version " +
            std::to_string(kFormatVersion) + ")");
  }
  if (header.section_count != kNumSections) {
    corrupt("expected " + std::to_string(kNumSections) + " sections, found " +
            std::to_string(header.section_count));
  }

  // 2. Section table: bounds, CRCs, canonical layout — the same discipline
  // as the snapshot reader, so a truncated or bit-flipped delta (including
  // one cut short by a mid-write crash) is always detected here.
  const std::size_t table_end =
      sizeof(Header) + kNumSections * sizeof(SectionDesc);
  if (bytes.size() < table_end) corrupt("truncated section table");
  std::vector<SectionDesc> sections(kNumSections);
  std::memcpy(sections.data(), bytes.data() + sizeof(Header),
              kNumSections * sizeof(SectionDesc));
  for (std::size_t i = 0; i < kNumSections; ++i) {
    const SectionDesc& s = sections[i];
    if (s.id != i + 1) corrupt("section table out of order");
    if (s.offset % kAlignment != 0 || s.offset < table_end ||
        s.offset > bytes.size() || s.size_bytes > bytes.size() - s.offset) {
      corrupt("section " + std::to_string(s.id) + " out of bounds");
    }
    if (util::crc32(bytes.data() + s.offset, s.size_bytes) != s.crc) {
      corrupt("CRC mismatch in section " + std::to_string(s.id));
    }
  }
  std::size_t expected_offset = aligned(table_end);
  for (const SectionDesc& s : sections) {
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

  // 3. Payloads, sized by DELTA_META.
  if (sections[kDeltaMeta - 1].size_bytes != sizeof(DeltaMeta)) {
    corrupt("DELTA_META section malformed");
  }
  DeltaMeta meta;
  std::memcpy(&meta, bytes.data() + sections[kDeltaMeta - 1].offset,
              sizeof(meta));
  if (meta.num_new_sequences + 1 == 0 || meta.num_families + 1 == 0 ||
      meta.num_fresh_families + 1 == 0) {
    corrupt("element counts overflow");
  }

  auto read_into = [&](SectionId id, u64 count, auto& out) {
    using T = typename std::remove_reference_t<decltype(out)>::value_type;
    const SectionDesc& s = sections[static_cast<std::size_t>(id) - 1];
    if (count > s.size_bytes / sizeof(T) || s.size_bytes != count * sizeof(T)) {
      corrupt("section " + std::to_string(id) + " holds " +
              std::to_string(s.size_bytes) + " bytes, expected " +
              std::to_string(count) + " x " + std::to_string(sizeof(T)));
    }
    out.resize(count);
    if (count > 0) {
      std::memcpy(out.data(), bytes.data() + s.offset, s.size_bytes);
    }
  };

  SnapshotDelta d;
  d.chain_index = meta.chain_index;
  d.base_crc = meta.base_crc;
  d.result_crc = meta.result_crc;
  d.num_base_sequences = meta.num_base_sequences;
  d.num_base_families = meta.num_base_families;
  d.num_families = meta.num_families;
  d.kmer_k = meta.kmer_k;
  d.sig_num_hashes = meta.sig_num_hashes;
  d.sig_seed = meta.sig_seed;
  read_into(kSeqOffsets, meta.num_new_sequences + 1, d.seq_offsets);
  read_into(kResidues, meta.new_residue_bytes, d.residues);
  read_into(kIdOffsets, meta.num_new_sequences + 1, d.id_offsets);
  read_into(kIds, meta.new_id_bytes, d.ids);
  read_into(kNewFamilyOf, meta.num_new_sequences, d.new_family_of);
  read_into(kMovedSeq, meta.num_moved, d.moved_seq);
  read_into(kMovedFamily, meta.num_moved, d.moved_family);
  read_into(kFamilySource, meta.num_families, d.family_source);
  read_into(kRetired, meta.num_retired, d.retired);
  read_into(kFreshRepOffsets, meta.num_fresh_families + 1,
            d.fresh_rep_offsets);
  read_into(kFreshReps, meta.num_fresh_reps, d.fresh_reps);
  read_into(kSignatures, meta.num_fresh_reps * meta.sig_num_hashes,
            d.signatures);

  // 4. Base-independent invariants (the base-dependent ones live in
  // apply_snapshot_delta, which has the base in hand).
  if (d.chain_index < 1) corrupt("chain indices are 1-based");
  if (d.kmer_k < 2 || d.kmer_k > 12) corrupt("k out of domain");
  if (d.sig_num_hashes < 1 || d.sig_num_hashes > (1u << 20)) {
    corrupt("signature width out of domain");
  }
  for (const i32 src : d.family_source) {
    if (src != SnapshotDelta::kFreshFamily &&
        (src < 0 || static_cast<u64>(src) >= d.num_base_families)) {
      corrupt("family source out of range");
    }
  }
  if (!std::is_sorted(d.moved_seq.begin(), d.moved_seq.end()) ||
      !std::is_sorted(d.retired.begin(), d.retired.end())) {
    corrupt("moved/retired lists not sorted");
  }
  return d;
}

void write_delta(const SnapshotDelta& delta, const std::string& path) {
  framing::publish_file(serialize_delta(delta), path, "delta");
}

SnapshotDelta load_delta(const std::string& path) {
  return deserialize_delta(framing::read_file(path, "snapshot delta"));
}

std::string delta_chain_path(const std::string& base_path, u64 index) {
  return base_path + ".delta." + std::to_string(index);
}

DeltaChainTip follow_delta_chain(const std::string& base_path) {
  DeltaChainTip tip{load_snapshot(base_path), 0};
  for (u64 i = 1;; ++i) {
    const std::string path = delta_chain_path(base_path, i);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) break;  // first gap ends the chain
    std::fclose(f);
    const SnapshotDelta delta = load_delta(path);
    if (delta.chain_index != i) {
      corrupt("chain link " + std::to_string(i) + " carries index " +
              std::to_string(delta.chain_index));
    }
    tip.store = apply_snapshot_delta(tip.store, delta);
    tip.chain_length = i;
  }
  return tip;
}

}  // namespace gpclust::store
