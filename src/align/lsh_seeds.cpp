#include "align/lsh_seeds.hpp"

#include <algorithm>
#include <span>

#include "seq/sketch.hpp"

namespace gpclust::align {

namespace {

/// Exact distinct-k-mer intersection of two sorted code lists.
std::size_t shared_codes(std::span<const u64> a, std::span<const u64> b) {
  std::size_t shared = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

}  // namespace

std::vector<CandidatePair> recount_band_candidates(
    const seq::SequenceSet& sequences, const LshSeedConfig& config,
    std::span<const u64> keys, std::span<const u32> band_hits,
    std::size_t* scratch_bytes) {
  // Recompute each side's sorted distinct codes transiently (two scratch
  // lists, reused pair to pair — keys are (a, b)-sorted, so the `a` side
  // is usually cached).
  std::vector<CandidatePair> pairs;
  std::vector<u64> codes_a, codes_b;
  u32 cached_a = ~0u;
  for (std::size_t idx = 0; idx < keys.size(); ++idx) {
    if (!band_hits.empty() && band_hits[idx] < config.min_band_hits) continue;
    const u32 a = static_cast<u32>(keys[idx] >> 32);
    const u32 b = static_cast<u32>(keys[idx] & 0xffffffffu);
    if (a != cached_a) {
      seq::distinct_kmer_codes(sequences[a].residues, config.k, codes_a);
      cached_a = a;
    }
    seq::distinct_kmer_codes(sequences[b].residues, config.k, codes_b);
    const std::size_t shared = shared_codes(codes_a, codes_b);
    if (shared >= config.min_shared_kmers) {
      pairs.push_back({a, b, static_cast<u32>(shared), 0});
    }
  }
  if (scratch_bytes != nullptr) {
    *scratch_bytes = (codes_a.size() + codes_b.size()) * sizeof(u64);
  }
  return pairs;
}

std::vector<CandidatePair> find_candidate_pairs_lsh(
    const seq::SequenceSet& sequences, const LshSeedConfig& config,
    obs::Tracer* tracer, std::size_t* peak_candidate_bytes) {
  config.validate();
  const std::size_t n = sequences.size();
  const u64 width = config.num_bands * config.rows_per_band;

  // Live-buffer high-water mark (size-based, deterministic). The residue
  // strings themselves are shared input, counted by neither seed path.
  std::size_t peak_bytes = 0;
  const auto note_peak = [&peak_bytes](std::size_t bytes) {
    peak_bytes = std::max(peak_bytes, bytes);
  };

  // Sketch every sequence once. Distinct codes are recomputed into a
  // per-sequence scratch and dropped immediately — keeping the flat code
  // lists alive across the band stream would cost ~len * 8 bytes per
  // sequence, an order of magnitude more than the width * 8 signature,
  // and the linear term is exactly what the 10x-scale memory budget
  // (bench_graph_scale) cannot afford.
  std::vector<u64> signatures(n * width);
  std::vector<u64> scratch;
  std::size_t scratch_peak = 0;
  {
    obs::HostSpan span(tracer, "homology.sketch");
    const seq::SketchHashes hashes(width, config.seed);
    for (std::size_t i = 0; i < n; ++i) {
      seq::distinct_kmer_codes(sequences[i].residues, config.k, scratch);
      scratch_peak = std::max(scratch_peak, scratch.size() * sizeof(u64));
      hashes.sketch(scratch,
                    std::span<u64>(signatures).subspan(i * width, width));
    }
  }
  const std::size_t sig_bytes = signatures.size() * sizeof(u64);
  note_peak(sig_bytes + scratch_peak);

  // Stream the bands: per band, a (band key, seq) table, its within-bucket
  // pair expansion, and a merge into the accumulated pair set. A sequence
  // lands in exactly one bucket per band, so a band's pair list is
  // duplicate-free by construction; sorting the table by (key, seq) makes
  // it pair-key-sorted for free. With the default min_band_hits == 1 the
  // per-pair collision counts are irrelevant, so the accumulator is a
  // plain sorted key-set union (8 bytes per pair — the accumulator is the
  // quadratic term of the stage's memory); only min_band_hits > 1 keeps a
  // parallel hit-count array.
  const bool count_hits = config.min_band_hits > 1;
  std::vector<std::pair<u64, u32>> entries;
  std::vector<u64> band_pairs;
  std::vector<u64> accum, merged;           // sorted distinct pair keys
  std::vector<u32> accum_hits, merged_hits; // parallel, only if count_hits
  for (u64 band = 0; band < config.num_bands; ++band) {
    entries.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const u64> rows =
          std::span<const u64>(signatures)
              .subspan(i * width + band * config.rows_per_band,
                       config.rows_per_band);
      // Sequences shorter than k sketch to all-empty slots; like the
      // postings path (and the serve-side bucket table) they can never
      // seed, so keep them out of every bucket.
      if (rows.front() == seq::kEmptySketchSlot) continue;
      entries.emplace_back(seq::band_key(band, rows), static_cast<u32>(i));
    }
    std::sort(entries.begin(), entries.end());

    band_pairs.clear();
    for (std::size_t lo = 0; lo < entries.size();) {
      std::size_t hi = lo;
      while (hi < entries.size() && entries[hi].first == entries[lo].first) {
        ++hi;
      }
      const std::size_t occupancy = hi - lo;
      if (occupancy >= 2 && occupancy <= config.max_bucket_size) {
        for (std::size_t x = lo; x < hi; ++x) {
          for (std::size_t y = x + 1; y < hi; ++y) {
            band_pairs.push_back(
                (static_cast<u64>(entries[x].second) << 32) |
                entries[y].second);
          }
        }
      }
      lo = hi;
    }
    std::sort(band_pairs.begin(), band_pairs.end());

    merged.clear();
    merged.reserve(accum.size() + band_pairs.size());
    if (count_hits) merged_hits.clear();
    std::size_t ai = 0, bi = 0;
    while (ai < accum.size() || bi < band_pairs.size()) {
      if (bi == band_pairs.size() ||
          (ai < accum.size() && accum[ai] < band_pairs[bi])) {
        merged.push_back(accum[ai]);
        if (count_hits) merged_hits.push_back(accum_hits[ai]);
        ++ai;
      } else if (ai == accum.size() || band_pairs[bi] < accum[ai]) {
        merged.push_back(band_pairs[bi++]);
        if (count_hits) merged_hits.push_back(1);
      } else {
        merged.push_back(accum[ai]);
        if (count_hits) merged_hits.push_back(accum_hits[ai] + 1);
        ++ai;
        ++bi;
      }
    }
    note_peak(sig_bytes + entries.size() * sizeof(entries[0]) +
              band_pairs.size() * sizeof(u64) +
              (accum.size() + merged.size()) * sizeof(u64) +
              (accum_hits.size() + merged_hits.size()) * sizeof(u32));
    accum.swap(merged);
    if (count_hits) accum_hits.swap(merged_hits);
  }
  signatures.clear();
  signatures.shrink_to_fit();

  // Exact recount over the survivors.
  std::size_t recount_bytes = 0;
  std::vector<CandidatePair> pairs = recount_band_candidates(
      sequences, config, accum, accum_hits, &recount_bytes);
  note_peak(accum.size() * sizeof(u64) + accum_hits.size() * sizeof(u32) +
            pairs.size() * sizeof(CandidatePair) + recount_bytes);
  if (peak_candidate_bytes != nullptr) *peak_candidate_bytes = peak_bytes;
  return pairs;
}

}  // namespace gpclust::align
