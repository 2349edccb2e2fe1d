#pragma once
// Striped query profiles for the SIMD Smith-Waterman fast path (Farrar,
// Bioinformatics 2007). The profile pre-resolves the BLOSUM62 row lookups
// of one query sequence into the striped lane layout the kernel consumes,
// so the inner loop is a single vector load per stripe instead of a
// scatter of matrix lookups. One profile serves every candidate pair that
// shares the query, which is why the homology-graph verifier sorts its
// pairs by query id and runs them through a capacity-1 cache.

#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/common.hpp"

namespace gpclust::align {

class QueryProfile {
 public:
  /// 8-bit lanes per 128-bit vector, and 16-bit lanes for the rescue pass.
  static constexpr std::size_t kLanes8 = 16;
  static constexpr std::size_t kLanes16 = 8;
  /// Added to every 8/16-bit profile entry so stored scores are
  /// non-negative: -blosum62_min_score() (checked at construction).
  static constexpr int kBias = 4;

  explicit QueryProfile(std::string_view query);

  std::size_t length() const { return encoded_.size(); }
  const std::string& query() const { return query_; }
  const std::vector<u8>& encoded() const { return encoded_; }

  /// Stripe counts: ceil(length / lanes), at least 1.
  std::size_t segments8() const { return seg8_; }
  std::size_t segments16() const { return seg16_; }

  /// Profile row for one target residue index: segments8() * kLanes8
  /// biased scores, entry [stripe * kLanes8 + lane] scoring query position
  /// lane * segments8() + stripe (0 past the query end).
  const u8* row8(u8 residue) const { return prof8_.data() + residue * seg8_ * kLanes8; }
  const u16* row16(u8 residue) const { return prof16_.data() + residue * seg16_ * kLanes16; }

 private:
  std::string query_;
  std::vector<u8> encoded_;
  std::size_t seg8_ = 1;
  std::size_t seg16_ = 1;
  std::vector<u8> prof8_;
  std::vector<u16> prof16_;
};

/// Capacity-bounded LRU profile cache keyed by sequence id. Batch
/// verification sees one query many times in a row, so each verify worker
/// owns a capacity-1 cache; a query service sees arbitrary queries that
/// keep re-hitting the same small set of family representatives, so its
/// profiles are built for the *representatives* and a deeper LRU over
/// them turns the per-alignment profile build into a hit after warm-up.
/// Not thread-safe — each worker owns one.
class LruQueryProfileCache {
 public:
  /// `capacity` >= 1 profiles are retained (checked).
  explicit LruQueryProfileCache(std::size_t capacity = 64);

  /// Profile for sequence `id`, building from `sequence` on a miss and
  /// evicting the least recently used entry when full. The reference stays
  /// valid until `id` is evicted (i.e. at least `capacity - 1` distinct
  /// intervening gets).
  const QueryProfile& get(u32 id, std::string_view sequence);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  u64 builds() const { return builds_; }  ///< misses (profile constructions)
  u64 hits() const { return hits_; }

 private:
  using Entry = std::pair<u32, QueryProfile>;

  std::size_t capacity_;
  std::list<Entry> entries_;  ///< front = most recently used
  std::unordered_map<u32, std::list<Entry>::iterator> index_;
  u64 builds_ = 0;
  u64 hits_ = 0;
};

}  // namespace gpclust::align
