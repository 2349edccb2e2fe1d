#include "core/shingle_graph.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "util/group_by.hpp"

namespace gpclust::core {

namespace {

/// Bucket count aggregate_tuples derives from the tuple count: about this
/// many tuples per bucket, so every per-bucket sort stays within a few
/// cache lines...
constexpr std::size_t kTuplesPerBucket = 64;
/// ...up to this many buckets, which bounds the per-thread histograms.
constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;
/// Below this many tuples per worker the pool's dispatch costs more than
/// it saves; smaller inputs aggregate on the calling thread.
constexpr std::size_t kMinTuplesPerWorker = std::size_t{1} << 14;

/// Packs a tuple into one 128-bit key ordered by (shingle, owner).
inline __uint128_t pack_tuple(ShingleId shingle, u32 owner) {
  return (static_cast<__uint128_t>(shingle) << 32) | owner;
}

/// Monotone multiply-shift bucket map: floor(shingle * buckets / 2^64).
/// Shingle ids are (salted) hashes, so they spread uniformly over the u64
/// range and the buckets come out balanced without any sampling pass.
inline u32 bucket_of(ShingleId shingle, u32 buckets) {
  return static_cast<u32>(
      (static_cast<__uint128_t>(shingle) * buckets) >> 64);
}

/// The one aggregation both entry points share (DESIGN.md §8): the
/// packed (shingle, owner) keys grouped by util::bucketed_group_by on
/// bucket_of — per-worker histograms over contiguous tuple ranges, one
/// prefix sum, a scatter straight from the tuple arrays into one packed
/// allocation, a parallel per-bucket sort — then a parallel dedup and
/// grouping of every bucket, and a parallel write of each bucket's groups
/// at its prefix-summed position. bucket_of is monotone in the shingle id
/// and every key of one shingle lands in one bucket, so the concatenated
/// buckets are the globally sorted, deduplicated key order: the graph is
/// identical for every bucket count.
BipartiteShingleGraph aggregate_bucketed(ShingleTuples&& tuples,
                                         u32 buckets) {
  const std::size_t n = tuples.size();
  GPCLUST_CHECK(tuples.owner.size() == n, "tuple arrays out of sync");
  GPCLUST_CHECK(buckets >= 1, "need at least one bucket");

  const std::size_t workers = util::group_by_workers(n, kMinTuplesPerWorker);
  // Every slot is written by the fill pass, so the array is left
  // uninitialized: its pages are first touched by the parallel workers.
  std::unique_ptr<__uint128_t[]> packed;
  const std::vector<std::size_t> bounds = util::bucketed_group_by<__uint128_t>(
      n, workers, buckets,
      [&](std::size_t, std::size_t i, auto&& emit) {
        emit(pack_tuple(tuples.shingle[i], tuples.owner[i]));
      },
      [buckets](__uint128_t key) {
        return bucket_of(static_cast<ShingleId>(key >> 32), buckets);
      },
      [&packed](std::size_t total) {
        packed = std::make_unique_for_overwrite<__uint128_t[]>(total);
        return packed.get();
      },
      std::less<__uint128_t>{});
  tuples.shingle.clear();
  tuples.shingle.shrink_to_fit();
  tuples.owner.clear();
  tuples.owner.shrink_to_fit();

  // Dedup each sorted bucket in place; keys[b] / groups[b] count its
  // distinct keys and distinct shingles.
  std::vector<std::size_t> keys(buckets + std::size_t{1}, 0);
  std::vector<std::size_t> groups(buckets + std::size_t{1}, 0);
  util::for_ranges(workers, buckets, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      __uint128_t* first = packed.get() + bounds[b];
      __uint128_t* last = std::unique(first, packed.get() + bounds[b + 1]);
      keys[b] = static_cast<std::size_t>(last - first);
      for (const __uint128_t* k = first; k != last; ++k) {
        if (k == first || (*k >> 32) != (k[-1] >> 32)) ++groups[b];
      }
    }
  });
  // Exclusive prefix sums: where each bucket's members and groups start.
  std::exclusive_scan(keys.begin(), keys.end(), keys.begin(), std::size_t{0});
  std::exclusive_scan(groups.begin(), groups.end(), groups.begin(),
                      std::size_t{0});

  BipartiteShingleGraph g;
  g.members.resize(keys[buckets]);
  g.offsets.resize(groups[buckets] + 1);
  util::for_ranges(workers, buckets, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const __uint128_t* first = packed.get() + bounds[b];
      std::size_t member = keys[b];
      std::size_t group = groups[b];
      for (std::size_t i = 0; i < keys[b + 1] - keys[b]; ++i) {
        if (i == 0 || (first[i] >> 32) != (first[i - 1] >> 32)) {
          g.offsets[group++] = member;
        }
        g.members[member++] = static_cast<u32>(first[i] & 0xffffffffu);
      }
    }
  });
  g.offsets.back() = g.members.size();
  return g;
}

}  // namespace

BipartiteShingleGraph aggregate_tuples(ShingleTuples&& tuples) {
  const u32 buckets = static_cast<u32>(std::clamp<std::size_t>(
      tuples.size() / kTuplesPerBucket, 1, kMaxBuckets));
  return aggregate_bucketed(std::move(tuples), buckets);
}

BipartiteShingleGraph aggregate_tuples_sharded(ShingleTuples&& tuples,
                                               u32 shards) {
  if (shards <= 1) return aggregate_tuples(std::move(tuples));
  return aggregate_bucketed(std::move(tuples), shards);
}

}  // namespace gpclust::core
