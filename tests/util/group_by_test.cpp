#include "util/group_by.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace gpclust::util {
namespace {

/// Groups `values` (source i emits values[i] and, when `twice`, also
/// values[i] + 1) into `buckets` buckets of the value range [0, range) and
/// returns the concatenated output plus the bounds.
struct Grouped {
  std::vector<u64> out;
  std::vector<std::size_t> bounds;
};

Grouped group(const std::vector<u64>& values, u64 range, std::size_t buckets,
              std::size_t workers, bool twice = false) {
  Grouped g;
  std::size_t allocations = 0;
  g.bounds = bucketed_group_by<u64>(
      values.size(), workers, buckets,
      [&](std::size_t worker, std::size_t i, auto&& emit) {
        EXPECT_LT(worker, workers);
        emit(values[i]);
        if (twice) emit(values[i] + 1);
      },
      [&](u64 v) {
        return static_cast<std::size_t>(static_cast<__uint128_t>(v) *
                                        buckets / range);
      },
      [&](std::size_t total) {
        ++allocations;
        g.out.resize(total);
        return g.out.data();
      },
      std::less<u64>{});
  EXPECT_EQ(allocations, 1u);
  return g;
}

TEST(BucketedGroupBy, EmptyInputYieldsEmptyBuckets) {
  const Grouped g = group({}, 100, 4, 1);
  EXPECT_TRUE(g.out.empty());
  EXPECT_EQ(g.bounds, std::vector<std::size_t>(5, 0));
}

TEST(BucketedGroupBy, SingleRecord) {
  const Grouped g = group({42}, 100, 4, 1);
  EXPECT_EQ(g.out, std::vector<u64>{42});
  EXPECT_EQ(g.bounds, (std::vector<std::size_t>{0, 0, 1, 1, 1}));
}

TEST(BucketedGroupBy, AllRecordsInOneBucket) {
  const std::vector<u64> values = {7, 3, 9, 3, 1, 8};
  const Grouped g = group(values, 1000, 16, 3);
  std::vector<u64> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(g.out, sorted);
  EXPECT_EQ(g.bounds.front(), 0u);
  EXPECT_EQ(g.bounds[1], values.size());
  EXPECT_EQ(g.bounds.back(), values.size());
}

TEST(BucketedGroupBy, MoreBucketsThanRecords) {
  const std::vector<u64> values = {90, 10, 50};
  const Grouped g = group(values, 100, 1000, 2);
  EXPECT_EQ(g.out, (std::vector<u64>{10, 50, 90}));
  ASSERT_EQ(g.bounds.size(), 1001u);
  EXPECT_EQ(g.bounds[100], 0u);
  EXPECT_EQ(g.bounds[101], 1u);
  EXPECT_EQ(g.bounds.back(), 3u);
}

TEST(BucketedGroupBy, BoundsDelimitEachBucketsRecords) {
  Xoshiro256 rng(3);
  std::vector<u64> values(5000);
  for (u64& v : values) v = rng.next_below(1 << 20);
  const std::size_t buckets = 37;
  const Grouped g = group(values, 1 << 20, buckets, 4, /*twice=*/true);
  ASSERT_EQ(g.out.size(), 2 * values.size());
  EXPECT_TRUE(std::is_sorted(g.out.begin(), g.out.end()));
  for (std::size_t b = 0; b < buckets; ++b) {
    for (std::size_t i = g.bounds[b]; i < g.bounds[b + 1]; ++i) {
      EXPECT_EQ(static_cast<std::size_t>(g.out[i] * buckets >> 20), b);
    }
  }
}

TEST(BucketedGroupBy, OutputIndependentOfWorkerCount) {
  // Many duplicate keys spread over every worker's range: with a total
  // order the output must not depend on how sources split across workers.
  Xoshiro256 rng(11);
  std::vector<u64> values(20000);
  for (u64& v : values) v = rng.next_below(64) << 32 | rng.next_below(1000);
  const auto run = [&](std::size_t workers, std::size_t buckets) {
    std::vector<u64> out;
    const auto bounds = bucketed_group_by<u64>(
        values.size(), workers, buckets,
        [&](std::size_t, std::size_t i, auto&& emit) { emit(values[i]); },
        [&](u64 v) { return static_cast<std::size_t>((v >> 32) * buckets / 64); },
        [&](std::size_t total) {
          out.resize(total);
          return out.data();
        },
        [](u64 x, u64 y) { return x < y; });
    EXPECT_EQ(bounds.back(), values.size());
    return out;
  };
  const std::vector<u64> reference = run(1, 1);
  EXPECT_TRUE(std::is_sorted(reference.begin(), reference.end()));
  for (std::size_t workers : {1u, 2u, 3u, 4u, 7u, 16u}) {
    for (std::size_t buckets : {1u, 5u, 64u, 300u}) {
      EXPECT_EQ(run(workers, buckets), reference)
          << "workers=" << workers << " buckets=" << buckets;
    }
  }
}

TEST(BucketedGroupBy, GeneratorSeesTheSameWorkerInBothPasses) {
  // Per-worker scratch is only sound if source i runs on the same worker
  // in the count and the fill pass.
  const std::size_t sources = 1000;
  const std::size_t workers = 4;
  std::vector<std::size_t> seen(2 * sources, workers);
  std::vector<u64> out;
  std::vector<std::size_t> calls(sources, 0);
  bucketed_group_by<u64>(
      sources, workers, 8,
      [&](std::size_t worker, std::size_t i, auto&& emit) {
        seen[2 * i + calls[i]++] = worker;
        emit(i);
      },
      [](u64 v) { return static_cast<std::size_t>(v % 8); },
      [&](std::size_t total) {
        out.resize(total);
        return out.data();
      },
      [](u64 x, u64 y) { return x % 8 != y % 8 ? x % 8 < y % 8 : x < y; });
  for (std::size_t i = 0; i < sources; ++i) {
    EXPECT_EQ(calls[i], 2u);
    EXPECT_EQ(seen[2 * i], seen[2 * i + 1]);
  }
}

TEST(BucketedGroupBy, Validation) {
  std::vector<u64> out;
  const auto generate = [](std::size_t, std::size_t, auto&&) {};
  const auto bucket = [](u64) { return std::size_t{0}; };
  const auto allocate = [&](std::size_t) { return out.data(); };
  EXPECT_THROW(bucketed_group_by<u64>(1, 1, 0, generate, bucket, allocate,
                                      std::less<u64>{}),
               InvalidArgument);
  EXPECT_THROW(bucketed_group_by<u64>(1, 0, 1, generate, bucket, allocate,
                                      std::less<u64>{}),
               InvalidArgument);
}

}  // namespace
}  // namespace gpclust::util
