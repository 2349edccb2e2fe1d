#include "core/shingle_graph.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>

#include "core/shingle_graph_detail.hpp"
#include "util/thread_pool.hpp"

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

/// Monotone multiply-shift bucket map: floor(shingle * buckets / 2^64).
/// Shingle ids are (salted) hashes, so they spread uniformly over the u64
/// range and the buckets come out balanced without any sampling pass.
inline u32 bucket_of(ShingleId shingle, u32 buckets) {
  return static_cast<u32>(
      (static_cast<__uint128_t>(shingle) * buckets) >> 64);
}

/// The one aggregation both entry points share (DESIGN.md §8): an MSD
/// bucketing of the packed (shingle, owner) keys on bucket_of, then the
/// sort, dedup and grouping of every bucket on its own. Per-worker
/// histograms over contiguous tuple ranges, one prefix sum in (bucket,
/// worker) order, a parallel scatter straight from the tuple arrays into
/// one packed allocation, parallel per-bucket sort + unique, and a
/// parallel write of each bucket's groups at its prefix-summed position.
/// bucket_of is monotone in the shingle id and every key of one shingle
/// lands in one bucket, so the concatenated buckets are the globally
/// sorted, deduplicated key order: the graph is identical for every bucket
/// count.
BipartiteShingleGraph aggregate_bucketed(ShingleTuples&& tuples,
                                         u32 buckets) {
  const std::size_t n = tuples.size();
  GPCLUST_CHECK(tuples.owner.size() == n, "tuple arrays out of sync");
  GPCLUST_CHECK(buckets >= 1, "need at least one bucket");

  util::ThreadPool& pool = util::default_thread_pool();
  const std::size_t workers =
      std::clamp<std::size_t>(n / kMinTuplesPerWorker, 1, pool.size());
  const auto for_ranges =
      [&](std::size_t count,
          const std::function<void(std::size_t, std::size_t)>& fn) {
        if (workers > 1) {
          pool.parallel_for(0, count, fn);
        } else {
          fn(0, count);
        }
      };
  // Worker w owns tuples [w * per_worker, (w + 1) * per_worker) in both
  // the histogram and the scatter pass.
  const std::size_t per_worker = (n + workers - 1) / workers;
  const auto range_of = [&](std::size_t w) {
    return std::pair{std::min(n, w * per_worker),
                     std::min(n, (w + 1) * per_worker)};
  };

  // cursor[w * buckets + b]: first the count of worker w's tuples in
  // bucket b, then (after the prefix sum) where the next one goes.
  std::vector<std::size_t> cursor(workers * buckets, 0);
  for_ranges(workers, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t w = lo; w < hi; ++w) {
      std::size_t* counts = cursor.data() + w * buckets;
      const auto [begin, end] = range_of(w);
      for (std::size_t i = begin; i < end; ++i) {
        ++counts[bucket_of(tuples.shingle[i], buckets)];
      }
    }
  });
  std::vector<std::size_t> bounds(static_cast<std::size_t>(buckets) + 1, 0);
  std::size_t total = 0;
  for (u32 b = 0; b < buckets; ++b) {
    bounds[b] = total;
    for (std::size_t w = 0; w < workers; ++w) {
      std::size_t& slot = cursor[w * buckets + b];
      const std::size_t count = slot;
      slot = total;
      total += count;
    }
  }
  bounds[buckets] = total;

  // Every slot is written by the scatter, so the array is left
  // uninitialized: its pages are first touched by the parallel workers.
  const auto packed = std::make_unique_for_overwrite<__uint128_t[]>(n);
  for_ranges(workers, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t w = lo; w < hi; ++w) {
      std::size_t* next = cursor.data() + w * buckets;
      const auto [begin, end] = range_of(w);
      for (std::size_t i = begin; i < end; ++i) {
        const ShingleId s = tuples.shingle[i];
        packed[next[bucket_of(s, buckets)]++] =
            detail::pack_tuple(s, tuples.owner[i]);
      }
    }
  });
  tuples.shingle.clear();
  tuples.shingle.shrink_to_fit();
  tuples.owner.clear();
  tuples.owner.shrink_to_fit();

  // Sort and dedup each bucket in place; keys[b] / groups[b] count its
  // distinct keys and distinct shingles.
  std::vector<std::size_t> keys(buckets + std::size_t{1}, 0);
  std::vector<std::size_t> groups(buckets + std::size_t{1}, 0);
  for_ranges(buckets, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      __uint128_t* first = packed.get() + bounds[b];
      __uint128_t* last = packed.get() + bounds[b + 1];
      std::sort(first, last);
      last = std::unique(first, last);
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
  for_ranges(buckets, [&](std::size_t lo, std::size_t hi) {
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
