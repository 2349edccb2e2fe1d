#pragma once
// Internal helper shared by the CPU and device tuple-aggregation paths.
// Not part of the public API.

#include "core/shingle_graph.hpp"

namespace gpclust::core::detail {

/// Packs a tuple into one 128-bit key ordered by (shingle, owner).
inline __uint128_t pack_tuple(ShingleId shingle, u32 owner) {
  return (static_cast<__uint128_t>(shingle) << 32) | owner;
}

}  // namespace gpclust::core::detail
