#pragma once
// Parallel bucketed group-by (DESIGN.md §8): the one primitive behind
// tuple aggregation (core/shingle_graph), k-mer seeding (align/kmer_index)
// and the store's postings index (store/snapshot). Records come from a
// caller-supplied generator; a monotone bucket map splits them into
// buckets that are counted, placed and sorted independently, so the
// concatenated buckets are the records in globally sorted order.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gpclust::util {

/// Workers a group-by over `sources` sources runs on: one per `grain`
/// sources, at least one and at most the default pool's size. With one
/// worker every phase runs on the calling thread.
inline std::size_t group_by_workers(std::size_t sources, std::size_t grain) {
  return std::clamp<std::size_t>(sources / std::max<std::size_t>(1, grain), 1,
                                 default_thread_pool().size());
}

/// fn(lo, hi) over [0, count): split across the default pool when
/// `workers` > 1, on the calling thread otherwise.
inline void for_ranges(std::size_t workers, std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn) {
  if (workers > 1) {
    default_thread_pool().parallel_for(0, count, fn);
  } else {
    fn(0, count);
  }
}

/// Groups the records of `sources` sources into `buckets` sorted buckets
/// and returns the bucket bounds (buckets + 1 entries): bucket b occupies
/// [bounds[b], bounds[b + 1]) of the output array.
///
///   * generate(worker, source, emit) calls emit(record) for each record
///     of one source. It runs twice per source, on the same worker (a
///     count pass, then a fill pass), and must emit the same records both
///     times; `worker` < workers indexes caller-owned per-worker scratch.
///   * bucket_of(record) < buckets must be monotone under `less`: a record
///     that sorts before another never lands in a later bucket.
///   * allocate(total) is called once, on the calling thread, between the
///     passes and returns the output array of exactly `total` records.
///
/// Worker w owns one contiguous range of sources in both passes and the
/// per-(bucket, worker) slots come from one prefix sum, so every record
/// lands in a slot fixed by the input alone; each bucket is then sorted
/// with `less` in parallel. When `less` is a total order on the records
/// (or equal records are indistinguishable) the output is identical for
/// every worker count. Workers allocate nothing: the calling thread
/// allocates the histograms and the output array.
template <typename Record, typename Generate, typename BucketOf,
          typename Allocate, typename Less>
std::vector<std::size_t> bucketed_group_by(std::size_t sources,
                                           std::size_t workers,
                                           std::size_t buckets,
                                           Generate&& generate,
                                           BucketOf&& bucket_of,
                                           Allocate&& allocate, Less&& less) {
  GPCLUST_CHECK(buckets >= 1, "need at least one bucket");
  GPCLUST_CHECK(workers >= 1, "need at least one worker");
  const std::size_t per_worker = (sources + workers - 1) / workers;

  // cursor[w * buckets + b]: first the count of worker w's records in
  // bucket b, then (after the prefix sum) where the next one goes.
  std::vector<std::size_t> cursor(workers * buckets, 0);
  const auto for_workers = [&](auto&& body) {
    for_ranges(workers, workers, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t w = lo; w < hi; ++w) {
        std::size_t* slots = cursor.data() + w * buckets;
        const std::size_t end = std::min(sources, (w + 1) * per_worker);
        for (std::size_t src = std::min(sources, w * per_worker); src < end;
             ++src) {
          body(w, src, slots);
        }
      }
    });
  };

  for_workers([&](std::size_t w, std::size_t src, std::size_t* counts) {
    generate(w, src,
             [&](const Record& record) { ++counts[bucket_of(record)]; });
  });
  std::vector<std::size_t> bounds(buckets + 1, 0);
  std::size_t total = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    bounds[b] = total;
    for (std::size_t w = 0; w < workers; ++w) {
      std::size_t& slot = cursor[w * buckets + b];
      const std::size_t count = slot;
      slot = total;
      total += count;
    }
  }
  bounds[buckets] = total;

  Record* out = allocate(total);
  for_workers([&](std::size_t w, std::size_t src, std::size_t* next) {
    generate(w, src, [&](const Record& record) {
      out[next[bucket_of(record)]++] = record;
    });
  });

  for_ranges(workers, buckets, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      std::sort(out + bounds[b], out + bounds[b + 1], less);
    }
  });
  return bounds;
}

}  // namespace gpclust::util
