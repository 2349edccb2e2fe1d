#pragma once
// Shingle extraction: the s smallest images of an adjacency list under a
// min-wise permutation, and the hashing of that s-subset into an integer
// shingle id (paper §III-B).
//
// Both the serial path (insertion sort over an s-sized array, as pClust
// does) and the device path (segmented sort + take-front-s, as gpClust's
// Figure 4 does) reduce a list to the same minima vector, so both produce
// bit-identical shingle ids — the central cross-implementation invariant.

#include <span>
#include <vector>

#include "core/minhash.hpp"
#include "util/common.hpp"

namespace gpclust::core {

/// Sentinel for "no value": larger than any permuted value (which are < P).
inline constexpr u64 kNoValue = ~0ULL;

/// Computes the s smallest values of {h(v) : v in gamma} into out[0..s),
/// ascending, padding with kNoValue when gamma.size() < s. Uses the
/// paper's s-sized insertion sort ("the small values of s expected to be
/// used in practice, typically under 10, justify a simple insertion
/// sort-based approach"); for s = 2 the two minima are kept in registers
/// and updated by a branch-free compare-exchange instead.
void min_s_images(std::span<const VertexId> gamma, const AffineHash& h, u32 s,
                  std::span<u64> out);

/// Reference alternative to min_s_images using a max-heap instead of the
/// insertion sort. Same contract and output. Exists to back the ablation
/// justifying the paper's choice ("the small values of s expected to be
/// used in practice... justify a simple insertion sort-based approach"):
/// for s <= ~10 the branchy heap loses to the insertion scan.
void min_s_images_heap(std::span<const VertexId> gamma, const AffineHash& h,
                       u32 s, std::span<u64> out);

/// Merges two ascending minima arrays (each of length s, kNoValue-padded)
/// into `into`: the s smallest of the union. Used by the CPU to combine
/// the partial results of an adjacency list split across device batches.
void merge_minima(std::span<u64> into, std::span<const u64> other);

/// Hashes an s-minima vector (ascending, kNoValue-padded) plus the trial
/// index into a 64-bit shingle id. Returns kNoValue if fewer than s values
/// are present (the vertex has < s links and generates no shingle).
ShingleId hash_shingle(u32 trial, std::span<const u64> minima);

}  // namespace gpclust::core
