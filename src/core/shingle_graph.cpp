#include "core/shingle_graph.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <numeric>

#include "util/group_by.hpp"
#include "util/rng.hpp"

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

/// Shards of S1ComponentBuilder's shingle map: several per pool worker, so
/// the workers' shard ranges hold about equal numbers of ids.
constexpr u32 kComponentShards = 256;
/// Tuples per window of S1ComponentBuilder::add's first phase. A pass
/// emits its tuples trial by trial, and an id recurs mostly within its
/// trial, so a window's distinct ids are a fraction of its tuples and
/// their table stays within a core's cache.
constexpr std::size_t kWindowTuples = std::size_t{1} << 18;
/// A table's capacity on its first id; it doubles whenever an insert would
/// fill it past 3/4.
constexpr std::size_t kMinTableSlots = 16;

/// Below this many G_I lists per worker distinct_lists hashes them on the
/// calling thread.
constexpr std::size_t kMinListsPerWorker = std::size_t{1} << 12;

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
/// of at least `min_len` members at its prefix-summed position.
/// bucket_of is monotone in the shingle id and every key of one shingle
/// lands in one bucket, so the concatenated buckets are the globally
/// sorted, deduplicated key order: the graph is identical for every
/// bucket count.
BipartiteShingleGraph aggregate_bucketed(ShingleTuples&& tuples, u32 buckets,
                                         u32 min_len, std::size_t* num_left) {
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

  // Dedup each sorted bucket in place and move its groups of at least
  // min_len keys to its front; keys[b] / groups[b] count their keys and
  // shingles, all_groups[b] every shingle of the bucket.
  std::vector<std::size_t> keys(buckets + std::size_t{1}, 0);
  std::vector<std::size_t> groups(buckets + std::size_t{1}, 0);
  std::vector<std::size_t> all_groups(buckets, 0);
  util::for_ranges(workers, buckets, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      __uint128_t* first = packed.get() + bounds[b];
      __uint128_t* last = std::unique(first, packed.get() + bounds[b + 1]);
      __uint128_t* kept = first;
      for (__uint128_t* group = first; group != last; ++all_groups[b]) {
        __uint128_t* end = group + 1;
        while (end != last && (*end >> 32) == (*group >> 32)) ++end;
        if (static_cast<std::size_t>(end - group) >= min_len) {
          while (group != end) *kept++ = *group++;
          ++groups[b];
        }
        group = end;
      }
      keys[b] = static_cast<std::size_t>(kept - first);
    }
  });
  if (num_left != nullptr) {
    *num_left = std::reduce(all_groups.begin(), all_groups.end());
  }
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

/// Home slot of a shingle id in a table of 2^bits slots. Fibonacci
/// hashing: the product's top bits mix every bit of the id, so the ids of
/// one shard, which share their top bits, still spread over its table.
inline std::size_t home_slot(ShingleId shingle, int bits) {
  return static_cast<std::size_t>((shingle * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - bits));
}

/// Hash of a member list, length included. Equal hashes are only
/// candidates: distinct_lists confirms every match by comparing the lists.
inline u64 list_hash(std::span<const u32> list) {
  u64 h = list.size();
  for (u32 v : list) h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
  return util::mix64(h);
}

}  // namespace

BipartiteShingleGraph aggregate_tuples(ShingleTuples&& tuples, u32 min_len,
                                       std::size_t* num_left) {
  const u32 buckets = static_cast<u32>(std::clamp<std::size_t>(
      tuples.size() / kTuplesPerBucket, 1, kMaxBuckets));
  return aggregate_bucketed(std::move(tuples), buckets, min_len, num_left);
}

BipartiteShingleGraph aggregate_tuples_sharded(ShingleTuples&& tuples,
                                               u32 shards) {
  if (shards <= 1) return aggregate_tuples(std::move(tuples));
  return aggregate_bucketed(std::move(tuples), shards, 1, nullptr);
}

DistinctLists distinct_lists(const BipartiteShingleGraph& gi) {
  const std::size_t n = gi.num_left();
  GPCLUST_CHECK(n < S1Components::kNone, "too many S1 nodes");

  std::vector<u64> hash(n);
  util::for_ranges(util::group_by_workers(n, kMinListsPerWorker), n,
                   [&](std::size_t lo, std::size_t hi) {
                     for (std::size_t f = lo; f < hi; ++f) {
                       hash[f] = list_hash(gi.list(f));
                     }
                   });

  // One pass in S1 order over an open-addressing table of representatives:
  // a list joins the first representative with its hash and its members,
  // or becomes one itself, so each class's representative is its smallest
  // S1 node. A hash collision between different lists probes on. The
  // table is never more than half full.
  std::vector<u32> table(std::bit_ceil(std::max(kMinTableSlots, 2 * n)),
                         S1Components::kNone);
  const int bits = std::countr_zero(table.size());
  const std::size_t mask = table.size() - 1;
  DistinctLists out;
  out.rep_of.resize(n);
  out.lists.offsets.push_back(0);
  for (u32 f = 0; f < n; ++f) {
    u32 rep = f;
    for (std::size_t slot = home_slot(hash[f], bits);;
         slot = (slot + 1) & mask) {
      const u32 r = table[slot];
      if (r == S1Components::kNone) {
        table[slot] = f;
        break;
      }
      if (hash[r] == hash[f] && std::ranges::equal(gi.list(r), gi.list(f))) {
        rep = r;
        break;
      }
    }
    out.rep_of[f] = rep;
    if (rep == f) {
      const auto list = gi.list(f);
      out.lists.members.insert(out.lists.members.end(), list.begin(),
                               list.end());
      out.lists.offsets.push_back(out.lists.members.size());
    }
  }
  return out;
}

S1Components DistinctLists::expand(const S1Components& compact) const {
  GPCLUST_CHECK(compact.of.size() == lists.num_left(),
                "components cover a different list count");
  S1Components out;
  out.count = compact.count;
  out.of.resize(rep_of.size());
  // Representatives come in S1 order, so the k-th one met owns list k; a
  // duplicate's representative is a smaller node, already mapped.
  std::size_t k = 0;
  for (u32 f = 0; f < rep_of.size(); ++f) {
    out.of[f] = rep_of[f] == f ? compact.of[k++] : out.of[rep_of[f]];
  }
  return out;
}

S1ComponentBuilder::S1ComponentBuilder(std::size_t num_s1)
    : num_s1_(num_s1),
      shards_(kComponentShards),
      parent_(std::make_unique<std::atomic<u32>[]>(num_s1)) {
  GPCLUST_CHECK(num_s1 < S1Components::kNone, "too many S1 nodes");
  // Relaxed: no other thread can see the array before add() hands it to
  // the pool, whose task queue orders these stores before every worker.
  for (std::size_t f = 0; f < num_s1; ++f) {
    parent_[f].store(S1Components::kNone, std::memory_order_relaxed);
  }
}

void S1ComponentBuilder::add(ShingleTuples&& tuples) {
  const std::size_t n = tuples.size();
  GPCLUST_CHECK(tuples.owner.size() == n, "tuple arrays out of sync");
  // Phase 1, over windows of consecutive tuples: a worker-local table
  // merges each window's repeats of an id into the id's first owner in
  // the window, and that first (id, owner) pair moves to the window's
  // front, in tuple order.
  const std::size_t windows = (n + kWindowTuples - 1) / kWindowTuples;
  std::vector<std::size_t> kept(windows, 0);
  util::for_ranges(
      std::min(windows, util::group_by_workers(n, kMinTuplesPerWorker)),
      windows, [&](std::size_t lo, std::size_t hi) {
        Table local;
        for (std::size_t w = lo; w < hi; ++w) {
          std::fill(local.slots.begin(), local.slots.end(), Slot{});
          local.size = 0;
          const std::size_t begin = w * kWindowTuples;
          const std::size_t end = std::min(n, begin + kWindowTuples);
          std::size_t out = begin;
          for (std::size_t i = begin; i < end; ++i) {
            const ShingleId shingle = tuples.shingle[i];
            const u32 owner = tuples.owner[i];
            GPCLUST_CHECK(owner < num_s1_, "tuple owner is not an S1 node");
            u32 absent = S1Components::kNone;
            if (parent_[owner].load() == absent) {
              parent_[owner].compare_exchange_strong(absent, owner);
            }
            if (insert_or_unite(local, shingle, owner)) {
              tuples.shingle[out] = shingle;
              tuples.owner[out] = owner;
              ++out;
            }
          }
          kept[w] = out - begin;
        }
      });
  // Phase 2: the windows' pairs into the sharded map. Each worker owns a
  // contiguous range of shards and takes its ids from a scan of every
  // window, so no table is shared between threads; only the union-find
  // is, and its links are compare-and-swap.
  std::size_t total = 0;
  for (std::size_t k : kept) total += k;
  util::for_ranges(
      util::group_by_workers(total, kMinTuplesPerWorker), kComponentShards,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t w = 0; w < windows; ++w) {
          const std::size_t begin = w * kWindowTuples;
          for (std::size_t i = begin; i < begin + kept[w]; ++i) {
            const ShingleId shingle = tuples.shingle[i];
            const u32 shard = bucket_of(shingle, kComponentShards);
            if (shard >= lo && shard < hi) {
              insert_or_unite(shards_[shard], shingle, tuples.owner[i]);
            }
          }
        }
      });
}

bool S1ComponentBuilder::insert_or_unite(Table& table, ShingleId shingle,
                                         u32 owner) {
  // The slot holding `key`, or the empty slot where it belongs.
  const auto probe = [](std::vector<Slot>& slots, ShingleId key) -> Slot& {
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = home_slot(key, std::countr_zero(slots.size()));;
         i = (i + 1) & mask) {
      Slot& slot = slots[i];
      if (slot.owner == S1Components::kNone || slot.key() == key) {
        return slot;
      }
    }
  };
  const Slot fresh{static_cast<u32>(shingle), static_cast<u32>(shingle >> 32),
                   owner};
  if (!table.slots.empty()) {
    Slot& slot = probe(table.slots, shingle);
    if (slot.owner != S1Components::kNone) {
      if (slot.owner != owner) unite(slot.owner, owner);
      return false;
    }
    if (4 * (table.size + 1) <= 3 * table.slots.size()) {
      slot = fresh;
      ++table.size;
      return true;
    }
  }
  // A new id that would fill the table past 3/4: double it and rehash.
  std::vector<Slot> grown(std::max(kMinTableSlots, 2 * table.slots.size()));
  for (const Slot& old : table.slots) {
    if (old.owner != S1Components::kNone) probe(grown, old.key()) = old;
  }
  probe(grown, shingle) = fresh;
  table.slots = std::move(grown);
  ++table.size;
  return true;
}

u32 S1ComponentBuilder::find(u32 x) const {
  for (;;) {
    u32 p = parent_[x].load();
    if (p == x) return x;
    const u32 grandparent = parent_[p].load();
    // Path halving; losing the race to another halving or link is harmless
    // since every parent stays an ancestor.
    if (grandparent != p) {
      parent_[x].compare_exchange_weak(p, grandparent);
    }
    x = grandparent;
  }
}

void S1ComponentBuilder::unite(u32 a, u32 b) {
  for (;;) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a < b) std::swap(a, b);
    // Link the larger root under the smaller one; retry if it stopped
    // being a root meanwhile.
    u32 expected = a;
    if (parent_[a].compare_exchange_weak(expected, b)) return;
  }
}

std::size_t S1ComponentBuilder::num_shingles() const {
  std::size_t total = 0;
  for (const Table& shard : shards_) total += shard.size;
  return total;
}

S1Components S1ComponentBuilder::components() const {
  S1Components out;
  out.of.assign(num_s1_, S1Components::kNone);
  for (u32 f = 0; f < num_s1_; ++f) {
    if (parent_[f].load() == S1Components::kNone) continue;
    // The root is the smallest node of f's set, so it was numbered first.
    const u32 root = find(f);
    out.of[f] = root == f ? static_cast<u32>(out.count++) : out.of[root];
  }
  return out;
}

}  // namespace gpclust::core
