#pragma once
// Distinct first-occurrence k-mer postings grouped by (code, id) — the
// flat sort-based k-mer index that both align/kmer_index (candidate-pair
// seeding) and store/snapshot (the family-level postings section) build.
// One parallel bucketed group-by (util/group_by.hpp, DESIGN.md §8) over
// the sequences: each sequence's distinct k-mers are generated on the fly,
// once to count and once to place, and never stored twice.

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

#include "seq/alphabet.hpp"
#include "util/common.hpp"
#include "util/group_by.hpp"

namespace gpclust::seq {

namespace detail {

/// About this many postings per code bucket, at most this many buckets.
inline constexpr std::size_t kPostingsPerBucket = 64;
inline constexpr std::size_t kMaxPostingBuckets = std::size_t{1} << 16;
/// Below this many k-mer windows per worker, group on the calling thread.
inline constexpr std::size_t kMinWindowsPerWorker = std::size_t{1} << 14;

}  // namespace detail

/// Builds the postings of sequences [0, count), where residues_of(id)
/// returns sequence id's residues (a std::string_view or convertible):
/// for every sequence at least k long, one posting per distinct k-mer at
/// its first occurrence, all of them sorted by (code, id). `Posting` is
/// any aggregate laid out as {u64 code; u32 id; u32 pos}: the k-mer's
/// base-kNumResidues code, the sequence id and the k-mer's first position
/// in that sequence. allocate(total) is called once, on the calling
/// thread, and returns the output array of exactly `total` postings.
/// Returns the bounds of the B code buckets (a posting lands in bucket
/// floor(code * B / 24^k)), so a caller can process code runs bucket by
/// bucket in parallel: no code run crosses a bucket boundary. Throws
/// InvalidArgument for a residue outside the alphabet, like residue_index.
template <typename Posting, typename ResiduesOf, typename Allocate>
std::vector<std::size_t> group_kmer_postings(std::size_t count, std::size_t k,
                                             ResiduesOf&& residues_of,
                                             Allocate&& allocate) {
  GPCLUST_CHECK(k >= 2 && k <= 12, "k must be in [2, 12]");
  u64 num_codes = 1;  // 24^k, below 2^56 for k <= 12
  for (std::size_t j = 0; j < k; ++j) num_codes *= kNumResidues;
  const u64 lead_weight = num_codes / kNumResidues;

  // Window counts size the buckets, the workers and their scratch.
  std::size_t windows = 0;
  std::size_t max_windows = 0;
  for (std::size_t id = 0; id < count; ++id) {
    const std::size_t length = std::string_view(residues_of(id)).size();
    if (length < k) continue;
    windows += length - k + 1;
    max_windows = std::max(max_windows, length - k + 1);
  }
  const std::size_t buckets = std::clamp<std::size_t>(
      windows / detail::kPostingsPerBucket, 1, detail::kMaxPostingBuckets);
  const std::size_t workers =
      util::group_by_workers(windows, detail::kMinWindowsPerWorker);
  // Per-worker scratch: one sequence's (code, pos) windows, packed so one
  // integer sort orders them by code, then position.
  std::vector<__uint128_t> scratch(workers * max_windows);

  return util::bucketed_group_by<Posting>(
      count, workers, buckets,
      [&](std::size_t worker, std::size_t id, auto&& emit) {
        const std::string_view r(residues_of(id));
        if (r.size() < k) return;
        __uint128_t* first = scratch.data() + worker * max_windows;
        __uint128_t* last = first;
        u64 code = 0;
        for (std::size_t j = 0; j + 1 < k; ++j) {
          code = code * kNumResidues + residue_index(r[j]);
        }
        for (std::size_t pos = 0; pos + k <= r.size(); ++pos) {
          code = code * kNumResidues + residue_index(r[pos + k - 1]);
          *last++ = (static_cast<__uint128_t>(code) << 32) | pos;
          code -= lead_weight * residue_index(r[pos]);
        }
        std::sort(first, last);
        for (const __uint128_t* w = first; w != last; ++w) {
          if (w != first && (*w >> 32) == (w[-1] >> 32)) continue;
          emit(Posting{static_cast<u64>(*w >> 32), static_cast<u32>(id),
                       static_cast<u32>(*w)});
        }
      },
      [&](const Posting& p) {
        const auto& [code, id, pos] = p;
        return static_cast<std::size_t>(
            static_cast<__uint128_t>(code) * buckets / num_codes);
      },
      allocate,
      [](const Posting& x, const Posting& y) {
        const auto& [x_code, x_id, x_pos] = x;
        const auto& [y_code, y_id, y_pos] = y;
        return x_code != y_code ? x_code < y_code : x_id < y_id;
      });
}

}  // namespace gpclust::seq
