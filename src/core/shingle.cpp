#include "core/shingle.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace gpclust::core {

void min_s_images(std::span<const VertexId> gamma, const AffineHash& h, u32 s,
                  std::span<u64> out) {
  GPCLUST_CHECK(out.size() >= s, "output span too small");
  if (s == 2) {
    // The production shingle size: both minima live in registers and every
    // image passes through one compare-exchange network (conditional moves)
    // instead of the insertion scan's data-dependent branches, which a
    // random permutation makes mispredict early in every list.
    u64 lo = kNoValue;
    u64 hi = kNoValue;
    for (VertexId v : gamma) {
      const u64 value = h(v);
      hi = std::min(hi, std::max(lo, value));
      lo = std::min(lo, value);
    }
    out[0] = lo;
    out[1] = hi;
    return;
  }
  std::fill(out.begin(), out.begin() + s, kNoValue);
  for (VertexId v : gamma) {
    u64 value = h(v);
    if (value >= out[s - 1]) continue;
    // Insertion into the sorted s-prefix.
    u32 pos = s - 1;
    while (pos > 0 && out[pos - 1] > value) {
      out[pos] = out[pos - 1];
      --pos;
    }
    out[pos] = value;
  }
}

void min_s_images_heap(std::span<const VertexId> gamma, const AffineHash& h,
                       u32 s, std::span<u64> out) {
  GPCLUST_CHECK(out.size() >= s, "output span too small");
  // Max-heap over the current s smallest values in out[0..s).
  std::fill(out.begin(), out.begin() + s, kNoValue);
  auto heap_begin = out.begin();
  auto heap_end = out.begin() + s;
  std::make_heap(heap_begin, heap_end);  // all kNoValue: already a heap
  for (VertexId v : gamma) {
    const u64 value = h(v);
    if (value >= out[0]) continue;
    std::pop_heap(heap_begin, heap_end);
    *(heap_end - 1) = value;
    std::push_heap(heap_begin, heap_end);
  }
  std::sort_heap(heap_begin, heap_end);
}

void merge_minima(std::span<u64> into, std::span<const u64> other) {
  GPCLUST_CHECK(into.size() == other.size(), "minima arrays differ in size");
  const std::size_t s = into.size();
  std::vector<u64> merged(s, kNoValue);
  std::size_t i = 0, j = 0;
  for (std::size_t k = 0; k < s; ++k) {
    if (j >= s || (i < s && into[i] <= other[j])) {
      merged[k] = into[i++];
    } else {
      merged[k] = other[j++];
    }
  }
  std::copy(merged.begin(), merged.end(), into.begin());
}

ShingleId hash_shingle(u32 trial, std::span<const u64> minima) {
  u64 id = util::mix64(0x5179'6e67'6c65ULL ^ (u64{trial} + 1));
  for (u64 value : minima) {
    if (value == kNoValue) return kNoValue;  // degree < s: no shingle
    id = util::mix64(id ^ util::mix64(value));
  }
  return id;
}

}  // namespace gpclust::core
