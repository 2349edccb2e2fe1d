#pragma once
// The bipartite shingle graph G_I(S, V', E') in adjacency-list form
// (paper §III-B): left nodes are distinct shingles, and each left node's
// list is L(s) — the set of right-side nodes that generated shingle s.
// The CPU-side aggregation that builds it from raw <shingle, owner>
// tuples is the "compute shingle graph" box of the paper's Figure 3.

#include <span>
#include <vector>

#include "util/common.hpp"

namespace gpclust::core {

/// Raw output of a shingling pass: tuple i says `owner[i]` generated
/// shingle `shingle[i]` during some trial (the trial index is already
/// folded into the shingle id so trials do not mix).
struct ShingleTuples {
  std::vector<ShingleId> shingle;
  std::vector<u32> owner;

  std::size_t size() const { return shingle.size(); }
  void append(ShingleId s, u32 o) {
    shingle.push_back(s);
    owner.push_back(o);
  }
};

/// G_I / G_II in CSR-like form. Left node i owns
/// members[offsets[i] .. offsets[i+1]), sorted ascending and de-duplicated.
struct BipartiteShingleGraph {
  std::vector<u64> offsets;   // num_left + 1 entries
  std::vector<u32> members;   // right-node ids

  std::size_t num_left() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const u32> list(std::size_t i) const {
    return {members.data() + offsets[i], members.data() + offsets[i + 1]};
  }
};

/// Sorts tuples by shingle id and groups equal ids into one left node each
/// ("a sorting is done to gather all vertices that generated each
/// shingle"). Duplicate (shingle, owner) pairs collapse. Consumes the
/// tuples to bound peak memory. The sort is a parallel MSD bucketing on
/// the top bits of the shingle id (per-thread histograms, a prefix sum, a
/// scatter into one packed allocation) followed by a parallel sort, dedup
/// and grouping of every bucket, with about 64 tuples per bucket and at
/// most 2^16 buckets (DESIGN.md §8). Measured host time, not modeled
/// device time.
BipartiteShingleGraph aggregate_tuples(ShingleTuples&& tuples);

/// aggregate_tuples with an explicit bucket count: `shards` > 1 buckets by
/// floor(shingle * shards / 2^64); `shards` <= 1 derives the count from
/// the tuple count, exactly as aggregate_tuples does. The bucket map is
/// monotone in the shingle id, so the concatenation of sorted buckets *is*
/// the globally sorted order and the graph is identical to
/// aggregate_tuples for every shard count.
BipartiteShingleGraph aggregate_tuples_sharded(ShingleTuples&& tuples,
                                               u32 shards);

}  // namespace gpclust::core
