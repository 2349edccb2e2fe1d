#include "align/kmer_index.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>

#include "seq/kmer_postings.hpp"
#include "util/group_by.hpp"

namespace gpclust::align {

namespace {

/// Pair-seed buckets: one per first sequence, up to this many.
constexpr std::size_t kMaxSeedBuckets = std::size_t{1} << 16;
/// Below this many postings per worker, emit seeds on the calling thread.
constexpr std::size_t kMinPostingsPerWorker = std::size_t{1} << 14;

}  // namespace

std::vector<CandidatePair> promote_seed_runs(std::span<PairSeed> seeds,
                                             std::size_t min_shared_kmers) {
  if (!std::is_sorted(seeds.begin(), seeds.end())) {
    std::sort(seeds.begin(), seeds.end());
  }
  std::vector<CandidatePair> pairs;
  for (std::size_t lo = 0; lo < seeds.size();) {
    std::size_t hi = lo;
    while (hi < seeds.size() && seeds[hi].key == seeds[lo].key) ++hi;
    const u32 count = static_cast<u32>(hi - lo);
    if (count >= min_shared_kmers) {
      i32 mode_diag = seeds[lo].diag;
      std::size_t mode_len = 0;
      for (std::size_t i = lo; i < hi;) {
        std::size_t j = i;
        while (j < hi && seeds[j].diag == seeds[i].diag) ++j;
        if (j - i > mode_len) {
          mode_len = j - i;
          mode_diag = seeds[i].diag;
        }
        i = j;
      }
      pairs.push_back({static_cast<u32>(seeds[lo].key >> 32),
                       static_cast<u32>(seeds[lo].key & 0xffffffffu), count,
                       mode_diag});
    }
    lo = hi;
  }
  return pairs;
}

std::vector<CandidatePair> find_candidate_pairs(
    const seq::SequenceSet& sequences, const KmerIndexConfig& config,
    std::size_t* peak_candidate_bytes) {
  GPCLUST_CHECK(config.k >= 2 && config.k <= 12, "k must be in [2, 12]");
  GPCLUST_CHECK(config.min_shared_kmers >= 1,
                "min_shared_kmers must be positive");
  // Live-buffer high-water mark, updated at the end of each stage while
  // every earlier buffer is still alive (size-based, deterministic).
  std::size_t peak_bytes = 0;
  const auto note_peak = [&peak_bytes](std::size_t bytes) {
    peak_bytes = std::max(peak_bytes, bytes);
  };

  // Flat sort-based index: every structure below is one contiguous array
  // built by a parallel bucketed group-by (DESIGN.md §8). First, every
  // sequence's distinct k-mers at their first occurrence, grouped by
  // (code, seq) — seq ascending within a code run keeps pair keys
  // (a << 32 | b) ordered.
  std::unique_ptr<KmerPosting[]> postings;
  std::size_t num_postings = 0;
  const std::vector<std::size_t> code_buckets =
      seq::group_kmer_postings<KmerPosting>(
          sequences.size(), config.k,
          [&](std::size_t i) { return std::string_view(sequences[i].residues); },
          [&](std::size_t total) {
            num_postings = total;
            postings = std::make_unique_for_overwrite<KmerPosting[]>(total);
            return postings.get();
          });
  note_peak(num_postings * sizeof(KmerPosting));

  // Emit one flat (pair-key, diagonal) record per shared seed, code run by
  // code run within each code bucket, grouped by (key, diag) in buckets of
  // the pair's first sequence — monotone in the key, so the buckets
  // concatenate to the globally sorted seed order.
  const std::size_t num_seqs = std::max<std::size_t>(1, sequences.size());
  const std::size_t seed_buckets = std::min(num_seqs, kMaxSeedBuckets);
  std::unique_ptr<PairSeed[]> seeds;
  std::size_t num_seeds = 0;
  util::bucketed_group_by<PairSeed>(
      code_buckets.size() - 1,
      util::group_by_workers(num_postings, kMinPostingsPerWorker),
      seed_buckets,
      [&](std::size_t, std::size_t bucket, auto&& emit) {
        const std::size_t end = code_buckets[bucket + 1];
        for (std::size_t lo = code_buckets[bucket]; lo < end;) {
          std::size_t hi = lo;
          while (hi < end && postings[hi].code == postings[lo].code) ++hi;
          const std::size_t occurrences = hi - lo;
          if (occurrences >= 2 &&
              occurrences <= config.max_kmer_occurrences) {
            for (std::size_t x = lo; x < hi; ++x) {
              for (std::size_t y = x + 1; y < hi; ++y) {
                emit(PairSeed{
                    (static_cast<u64>(postings[x].seq) << 32) | postings[y].seq,
                    static_cast<i32>(postings[x].pos) -
                        static_cast<i32>(postings[y].pos)});
              }
            }
          }
          lo = hi;
        }
      },
      [&](const PairSeed& s) {
        return static_cast<std::size_t>((s.key >> 32) * seed_buckets / num_seqs);
      },
      [&](std::size_t total) {
        num_seeds = total;
        seeds = std::make_unique_for_overwrite<PairSeed[]>(total);
        return seeds.get();
      },
      std::less<PairSeed>());
  note_peak(num_postings * sizeof(KmerPosting) +
            num_seeds * sizeof(PairSeed));

  std::vector<CandidatePair> pairs = promote_seed_runs(
      std::span<PairSeed>(seeds.get(), num_seeds), config.min_shared_kmers);
  note_peak(num_postings * sizeof(KmerPosting) +
            num_seeds * sizeof(PairSeed) +
            pairs.size() * sizeof(CandidatePair));
  if (peak_candidate_bytes != nullptr) *peak_candidate_bytes = peak_bytes;
  return pairs;
}

}  // namespace gpclust::align
