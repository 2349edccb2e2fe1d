#pragma once
// The bipartite shingle graph G_I(S, V', E') in adjacency-list form
// (paper §III-B): left nodes are distinct shingles, and each left node's
// list is L(s) — the set of right-side nodes that generated shingle s.
// The CPU-side aggregation that builds it from raw <shingle, owner>
// tuples is the "compute shingle graph" box of the paper's Figure 3.
//
// The second level's graph G_II is only ever read for the connected
// components it induces on the first-level shingles, so the engines build
// those directly from the pass-2 tuples (S1ComponentBuilder) and never
// materialize G_II.

#include <atomic>
#include <functional>
#include <memory>
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

/// Receives a pass's tuples one batch at a time.
using TupleSink = std::function<void(ShingleTuples&&)>;

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
/// Only left nodes of at least `min_len` members are kept, in order;
/// `num_left`, when set, receives the left-node count before that pruning.
BipartiteShingleGraph aggregate_tuples(ShingleTuples&& tuples,
                                       u32 min_len = 1,
                                       std::size_t* num_left = nullptr);

/// aggregate_tuples with an explicit bucket count: `shards` > 1 buckets by
/// floor(shingle * shards / 2^64); `shards` <= 1 derives the count from
/// the tuple count, exactly as aggregate_tuples does. The bucket map is
/// monotone in the shingle id, so the concatenation of sorted buckets *is*
/// the globally sorted order and the graph is identical to
/// aggregate_tuples for every shard count.
BipartiteShingleGraph aggregate_tuples_sharded(ShingleTuples&& tuples,
                                               u32 shards);

/// Connected components of the first-level shingles (S1 nodes) under G_II:
/// two S1 nodes are connected iff some second-level shingle lists both.
/// Only S1 nodes that own a pass-2 tuple belong to a component.
struct S1Components {
  static constexpr u32 kNone = ~u32{0};

  std::vector<u32> of;    ///< per S1 node: its component, or kNone
  std::size_t count = 0;  ///< components, numbered by their smallest S1 node
};

/// G_I's lists with every repeated list kept once (DESIGN.md §5). Two S1
/// nodes with identical lists get the same second-level shingle in every
/// trial, so they always share a component; pass 2 and the component
/// merge run over `lists` only, and expand() maps their components back
/// onto every S1 node. The result is exact: the same components, numbered
/// the same way, as over all of G_I.
struct DistinctLists {
  /// List k is the k-th representative's list; representatives keep
  /// increasing S1 order.
  BipartiteShingleGraph lists;
  /// Per S1 node: the smallest S1 node with an identical list (maybe itself).
  std::vector<u32> rep_of;

  /// Components over the S1 nodes from components over `lists`.
  S1Components expand(const S1Components& compact) const;
};

/// Finds the distinct lists of `gi`: each list is hashed in parallel, then
/// one serial pass in S1 order looks every list up in a hash table of
/// representatives and confirms each hash match by comparing the lists.
/// Only the hashing is parallel, list by list, so the result does not
/// depend on the worker count.
DistinctLists distinct_lists(const BipartiteShingleGraph& gi);

/// Builds S1Components from pass-2 tuples fed batch by batch, without
/// sorting them or writing G_II (DESIGN.md §8). A hash map from the full
/// 64-bit shingle id to the first owner it arrived with, sharded by
/// bucket_of, feeds a union-find over S1 indices: a later tuple of the
/// same id unites its owner with that first owner. Each table is sized by
/// the distinct ids it holds (grown on load), never by the tuple count.
/// add() first merges repeats within windows of consecutive tuples in
/// small cache-resident tables, then moves each window's distinct ids into
/// the shards; both phases split across the default pool's workers (one
/// per aggregate_tuples grain of tuples; a smaller batch runs on the
/// calling thread). The components equal those report_dense_subgraphs
/// derives from aggregate_tuples(all tuples), for every batching.
class S1ComponentBuilder {
 public:
  explicit S1ComponentBuilder(std::size_t num_s1);

  /// Merges one batch of tuples, consuming it (its arrays are reused as
  /// scratch); every owner must be < num_s1.
  void add(ShingleTuples&& tuples);

  /// Distinct shingle ids added so far: the left-node count G_II would have.
  std::size_t num_shingles() const;

  S1Components components() const;

 private:
  /// 12 bytes: the id is split in halves so padding does not round a
  /// slot up to 16.
  struct Slot {
    u32 key_lo = 0, key_hi = 0;
    u32 owner = S1Components::kNone;  ///< kNone: empty slot

    ShingleId key() const { return (u64{key_hi} << 32) | key_lo; }
  };
  /// Open-addressing (linear probing) map from id to first owner, with a
  /// power-of-two capacity.
  struct Table {
    std::vector<Slot> slots;
    std::size_t size = 0;
  };

  /// Unites `owner` with the id's first owner in `table`, or records it as
  /// that first owner; returns whether the id was new to the table.
  bool insert_or_unite(Table& table, ShingleId shingle, u32 owner);
  u32 find(u32 x) const;
  void unite(u32 a, u32 b);

  std::size_t num_s1_;
  std::vector<Table> shards_;
  /// Union-find parents; parent <= node, so every root is the smallest
  /// node of its set. kNone: the node has owned no tuple yet.
  std::unique_ptr<std::atomic<u32>[]> parent_;
};

}  // namespace gpclust::core
