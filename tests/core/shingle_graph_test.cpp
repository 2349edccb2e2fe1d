#include "core/shingle_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "util/rng.hpp"

namespace gpclust::core {
namespace {

/// Heavily duplicated random tuples: shingles drawn from about n/8 hashed
/// ids spread over the u64 range, owners from 16 ids, so most (shingle,
/// owner) pairs repeat.
ShingleTuples duplicated_tuples(std::size_t n, u64 seed) {
  util::Xoshiro256 rng(seed);
  std::vector<ShingleId> ids(std::max<std::size_t>(1, n / 8));
  for (auto& id : ids) id = util::mix64(rng.next());
  ShingleTuples t;
  for (std::size_t i = 0; i < n; ++i) {
    t.append(ids[rng.next_below(ids.size())],
             static_cast<u32>(rng.next_below(16)));
  }
  return t;
}

/// The plain sort / unique / group reference aggregation.
BipartiteShingleGraph reference_aggregate(const ShingleTuples& t) {
  std::vector<std::pair<ShingleId, u32>> pairs;
  for (std::size_t i = 0; i < t.size(); ++i) {
    pairs.emplace_back(t.shingle[i], t.owner[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  BipartiteShingleGraph g;
  g.offsets.push_back(0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0 && pairs[i].first != pairs[i - 1].first) {
      g.offsets.push_back(g.members.size());
    }
    g.members.push_back(pairs[i].second);
  }
  if (!pairs.empty()) g.offsets.push_back(g.members.size());
  return g;
}

TEST(AggregateTuples, MatchesSortUniqueGroupReferenceAcrossBucketCounts) {
  // 0, 1, below one 64-tuple bucket, exactly one, just above, many.
  for (std::size_t n : {0u, 1u, 10u, 64u, 65u, 1000u, 100000u}) {
    ShingleTuples t = duplicated_tuples(n, n + 1);
    const BipartiteShingleGraph expected = reference_aggregate(t);
    const BipartiteShingleGraph g = aggregate_tuples(std::move(t));
    EXPECT_EQ(g.offsets, expected.offsets) << "n=" << n;
    EXPECT_EQ(g.members, expected.members) << "n=" << n;
  }
}

TEST(AggregateTuples, MinLenKeepsTheLongGroupsInOrder) {
  // The reference with every group shorter than min_len dropped; the
  // survivors keep their order and num_left counts every group.
  for (std::size_t n : {0u, 1u, 65u, 1000u, 100000u}) {
    for (u32 min_len : {2u, 3u, 9u}) {
      ShingleTuples t = duplicated_tuples(n, n + 7);
      const BipartiteShingleGraph all = reference_aggregate(t);
      BipartiteShingleGraph expected;
      expected.offsets.push_back(0);
      for (std::size_t f = 0; f < all.num_left(); ++f) {
        const auto l = all.list(f);
        if (l.size() < min_len) continue;
        expected.members.insert(expected.members.end(), l.begin(), l.end());
        expected.offsets.push_back(expected.members.size());
      }
      std::size_t num_left = 0;
      const BipartiteShingleGraph g =
          aggregate_tuples(std::move(t), min_len, &num_left);
      const std::string label =
          "n=" + std::to_string(n) + " min_len=" + std::to_string(min_len);
      EXPECT_EQ(num_left, all.num_left()) << label;
      EXPECT_EQ(g.offsets, expected.offsets) << label;
      EXPECT_EQ(g.members, expected.members) << label;
    }
  }
}

TEST(AggregateTuples, MatchesReferenceBeyondTheBucketCap) {
  // More than 2^16 buckets' worth of 64 tuples: the bucket count is capped
  // and the buckets grow instead.
  const std::size_t n = (std::size_t{1} << 16) * 64 + 4099;
  ShingleTuples t = duplicated_tuples(n, 5);
  const BipartiteShingleGraph expected = reference_aggregate(t);
  const BipartiteShingleGraph g = aggregate_tuples(std::move(t));
  EXPECT_EQ(g.offsets, expected.offsets);
  EXPECT_EQ(g.members, expected.members);
}

TEST(AggregateTuples, SkewedShingleIdsStillGroupCorrectly) {
  // Small ids all fall in the first bucket; correctness must not depend
  // on the ids being spread.
  util::Xoshiro256 rng(3);
  ShingleTuples t;
  for (int i = 0; i < 50000; ++i) {
    t.append(rng.next_below(300), static_cast<u32>(rng.next_below(40)));
  }
  const BipartiteShingleGraph expected = reference_aggregate(t);
  const BipartiteShingleGraph g = aggregate_tuples(std::move(t));
  EXPECT_EQ(g.offsets, expected.offsets);
  EXPECT_EQ(g.members, expected.members);
}

TEST(AggregateTuples, EmptyInputYieldsEmptyGraph) {
  const auto g = aggregate_tuples(ShingleTuples{});
  EXPECT_EQ(g.num_left(), 0u);
  EXPECT_TRUE(g.members.empty());
}

TEST(AggregateTuples, GroupsByShingle) {
  ShingleTuples t;
  t.append(100, 1);
  t.append(200, 2);
  t.append(100, 3);
  t.append(200, 1);
  const auto g = aggregate_tuples(std::move(t));
  ASSERT_EQ(g.num_left(), 2u);
  // Groups ordered by shingle id; members ascending.
  const auto l0 = g.list(0);
  const auto l1 = g.list(1);
  EXPECT_EQ(std::vector<u32>(l0.begin(), l0.end()), (std::vector<u32>{1, 3}));
  EXPECT_EQ(std::vector<u32>(l1.begin(), l1.end()), (std::vector<u32>{1, 2}));
}

TEST(AggregateTuples, DuplicatePairsCollapse) {
  ShingleTuples t;
  t.append(5, 9);
  t.append(5, 9);
  t.append(5, 9);
  const auto g = aggregate_tuples(std::move(t));
  ASSERT_EQ(g.num_left(), 1u);
  EXPECT_EQ(g.list(0).size(), 1u);
}

TEST(AggregateTuples, OrderOfTuplesIrrelevant) {
  util::Xoshiro256 rng(21);
  ShingleTuples a, b;
  std::vector<std::pair<ShingleId, u32>> pairs;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back(rng.next_below(50), static_cast<u32>(rng.next_below(40)));
  }
  for (const auto& [s, o] : pairs) a.append(s, o);
  // Shuffle for b.
  for (std::size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.next_below(i)]);
  }
  for (const auto& [s, o] : pairs) b.append(s, o);

  const auto ga = aggregate_tuples(std::move(a));
  const auto gb = aggregate_tuples(std::move(b));
  EXPECT_EQ(ga.offsets, gb.offsets);
  EXPECT_EQ(ga.members, gb.members);
}

TEST(AggregateTuples, MatchesMapBasedReference) {
  util::Xoshiro256 rng(33);
  ShingleTuples t;
  std::map<ShingleId, std::set<u32>> reference;
  for (int i = 0; i < 1000; ++i) {
    const ShingleId s = rng.next_below(100);
    const u32 o = static_cast<u32>(rng.next_below(64));
    t.append(s, o);
    reference[s].insert(o);
  }
  const auto g = aggregate_tuples(std::move(t));
  ASSERT_EQ(g.num_left(), reference.size());
  std::size_t i = 0;
  for (const auto& [shingle, owners] : reference) {
    const auto list = g.list(i++);
    EXPECT_EQ(std::set<u32>(list.begin(), list.end()), owners);
  }
}

TEST(AggregateTuples, MismatchedArraysThrow) {
  ShingleTuples t;
  t.shingle.push_back(1);
  EXPECT_THROW(aggregate_tuples(std::move(t)), InvalidArgument);
}

TEST(AggregateTuplesSharded, MatchesFlatAggregationForEveryShardCount) {
  util::Xoshiro256 rng(77);
  ShingleTuples base;
  for (int i = 0; i < 2000; ++i) {
    // Spread shingles over the whole u64 range, as real (hashed) ids do —
    // the shard map keys on the top bits.
    base.append(rng.next(), static_cast<u32>(rng.next_below(128)));
  }
  ShingleTuples flat_input = base;
  const auto flat = aggregate_tuples(std::move(flat_input));

  for (u32 shards : {1u, 2u, 3u, 7u, 16u, 64u}) {
    ShingleTuples input = base;
    const auto sharded = aggregate_tuples_sharded(std::move(input), shards);
    EXPECT_EQ(sharded.offsets, flat.offsets) << "shards=" << shards;
    EXPECT_EQ(sharded.members, flat.members) << "shards=" << shards;
  }
}

TEST(AggregateTuplesSharded, MatchesReferenceForEveryBucketCount) {
  const ShingleTuples base = duplicated_tuples(40000, 9);
  const BipartiteShingleGraph expected = reference_aggregate(base);
  for (u32 shards : {1u, 2u, 7u, 256u, 40001u}) {
    ShingleTuples input = base;
    const auto g = aggregate_tuples_sharded(std::move(input), shards);
    EXPECT_EQ(g.offsets, expected.offsets) << "shards=" << shards;
    EXPECT_EQ(g.members, expected.members) << "shards=" << shards;
  }
}

TEST(AggregateTuplesSharded, MoreShardsThanTuplesIsHarmless) {
  ShingleTuples t;
  t.append(100, 1);
  t.append(200, 2);
  t.append(100, 3);
  const auto g = aggregate_tuples_sharded(std::move(t), 4096);
  ASSERT_EQ(g.num_left(), 2u);
  const auto l0 = g.list(0);
  EXPECT_EQ(std::vector<u32>(l0.begin(), l0.end()), (std::vector<u32>{1, 3}));
}

TEST(AggregateTuplesSharded, EmptyInputAndSingleShingleEdgeCases) {
  EXPECT_EQ(aggregate_tuples_sharded(ShingleTuples{}, 16).num_left(), 0u);

  // Every tuple lands in one shard; the others stay empty.
  ShingleTuples t;
  for (u32 o = 0; o < 10; ++o) t.append(~u64{0}, 9 - o);
  const auto g = aggregate_tuples_sharded(std::move(t), 8);
  ASSERT_EQ(g.num_left(), 1u);
  EXPECT_EQ(g.list(0).size(), 10u);
  EXPECT_EQ(g.list(0).front(), 0u);  // sorted ascending inside the group
}

TEST(AggregateTuplesSharded, MismatchedArraysThrow) {
  ShingleTuples t;
  t.shingle.push_back(1);
  EXPECT_THROW(aggregate_tuples_sharded(std::move(t), 4), InvalidArgument);
}

/// G_I with the given lists, in order.
BipartiteShingleGraph graph_of(const std::vector<std::vector<u32>>& lists) {
  BipartiteShingleGraph g;
  g.offsets.push_back(0);
  for (const auto& l : lists) {
    g.members.insert(g.members.end(), l.begin(), l.end());
    g.offsets.push_back(g.members.size());
  }
  return g;
}

/// The map-based reference: the first list of each content represents
/// it; the lists keep first-seen order.
DistinctLists reference_distinct(const BipartiteShingleGraph& gi) {
  std::map<std::vector<u32>, u32> first;
  DistinctLists d;
  d.lists.offsets.push_back(0);
  for (u32 f = 0; f < gi.num_left(); ++f) {
    const auto l = gi.list(f);
    const auto [it, fresh] =
        first.emplace(std::vector<u32>(l.begin(), l.end()), f);
    d.rep_of.push_back(it->second);
    if (fresh) {
      d.lists.members.insert(d.lists.members.end(), l.begin(), l.end());
      d.lists.offsets.push_back(d.lists.members.size());
    }
  }
  return d;
}

void expect_same(const DistinctLists& got, const DistinctLists& expected,
                 const std::string& label) {
  EXPECT_EQ(got.rep_of, expected.rep_of) << label;
  EXPECT_EQ(got.lists.offsets, expected.lists.offsets) << label;
  EXPECT_EQ(got.lists.members, expected.lists.members) << label;
}

TEST(DistinctLists, IdenticalListsCollapseToTheSmallestIndex) {
  const auto gi =
      graph_of({{3, 5}, {1, 2, 9}, {3, 5}, {4, 7}, {1, 2, 9}, {3, 5}});
  const DistinctLists d = distinct_lists(gi);
  EXPECT_EQ(d.rep_of, (std::vector<u32>{0, 1, 0, 3, 1, 0}));
  // One list per class, in the order of the representatives.
  EXPECT_EQ(d.lists.offsets, (std::vector<u64>{0, 2, 5, 7}));
  EXPECT_EQ(d.lists.members, (std::vector<u32>{3, 5, 1, 2, 9, 4, 7}));
  expect_same(d, reference_distinct(gi), "");
}

TEST(DistinctLists, ListsDifferingOnlyInTheLastMemberOrLengthStayDistinct) {
  const auto gi =
      graph_of({{1, 2, 3}, {1, 2, 4}, {1, 2}, {1, 2, 3, 4}, {0, 2, 3}});
  const DistinctLists d = distinct_lists(gi);
  EXPECT_EQ(d.rep_of, (std::vector<u32>{0, 1, 2, 3, 4}));
  EXPECT_EQ(d.lists.offsets, gi.offsets);
  EXPECT_EQ(d.lists.members, gi.members);
}

TEST(DistinctLists, MatchesTheMapReferenceOnManyRepeatedLists) {
  // Enough lists to hash on several workers, drawn from a few thousand
  // templates (lengths 0..8, some differing from another template only in
  // their last member) so most lists repeat.
  util::Xoshiro256 rng(29);
  std::vector<std::vector<u32>> templates(3000);
  for (std::size_t t = 0; t < templates.size(); ++t) {
    if (t % 5 == 4) {
      templates[t] = templates[t - 1];
      if (!templates[t].empty()) templates[t].back() += 1;
      continue;
    }
    const std::size_t len = rng.next_below(9);
    for (std::size_t i = 0; i < len; ++i) {
      templates[t].push_back(static_cast<u32>(rng.next_below(500)));
    }
    std::sort(templates[t].begin(), templates[t].end());
  }
  std::vector<std::vector<u32>> lists;
  for (int i = 0; i < 60000; ++i) {
    lists.push_back(templates[rng.next_below(templates.size())]);
  }
  const auto gi = graph_of(lists);
  const DistinctLists expected = reference_distinct(gi);
  ASSERT_LT(expected.lists.num_left(), gi.num_left() / 10);
  expect_same(distinct_lists(gi), expected, "");
}

TEST(DistinctLists, EmptyGraph) {
  for (const BipartiteShingleGraph& gi :
       {BipartiteShingleGraph{}, graph_of({})}) {
    const DistinctLists d = distinct_lists(gi);
    EXPECT_TRUE(d.rep_of.empty());
    EXPECT_EQ(d.lists.num_left(), 0u);
    EXPECT_EQ(d.lists.offsets, (std::vector<u64>{0}));
    const S1Components none = d.expand(S1Components{});
    EXPECT_TRUE(none.of.empty());
    EXPECT_EQ(none.count, 0u);
  }
}

TEST(DistinctLists, ExpandGivesEveryDuplicateItsRepresentativesComponent) {
  const auto gi = graph_of({{1, 2}, {3, 4}, {5, 6}, {1, 2}, {7, 8}, {5, 6}});
  const DistinctLists d = distinct_lists(gi);
  ASSERT_EQ(d.lists.num_left(), 4u);  // S1 nodes 0, 1, 2 and 4
  // A representative without a component keeps none.
  constexpr u32 kNone = S1Components::kNone;
  S1Components compact;
  compact.of = {0, kNone, 1, 0};
  compact.count = 2;
  const S1Components full = d.expand(compact);
  EXPECT_EQ(full.of, (std::vector<u32>{0, kNone, 1, 0, 0, 1}));
  EXPECT_EQ(full.count, 2u);
  S1Components wrong_size;
  wrong_size.of = {0};
  wrong_size.count = 1;
  EXPECT_THROW(d.expand(wrong_size), InvalidArgument);
}

}  // namespace
}  // namespace gpclust::core
