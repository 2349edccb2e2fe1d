#pragma once
// LSD radix sort device primitive for unsigned integer keys — the sorting
// algorithm behind Thrust's integer sorts on real GPUs (Merrill &
// Grimshaw, reference [15] of the paper: "High Performance and Scalable
// Radix Sorting"). 8-bit digits, stable, with an optional value array
// permuted alongside the keys.

#include <array>
#include <type_traits>

#include "device/primitives.hpp"

namespace gpclust::device {

namespace detail {

template <typename K>
void radix_pass(std::span<K> keys, std::span<K> scratch, int shift) {
  std::array<std::size_t, 257> buckets{};
  for (K key : keys) ++buckets[((key >> shift) & 0xff) + 1];
  for (std::size_t d = 1; d <= 256; ++d) buckets[d] += buckets[d - 1];
  for (K key : keys) scratch[buckets[(key >> shift) & 0xff]++] = key;
  std::copy(scratch.begin(), scratch.end(), keys.begin());
}

template <typename K, typename V>
void radix_pass_kv(std::span<K> keys, std::span<V> values,
                   std::span<K> key_scratch, std::span<V> value_scratch,
                   int shift) {
  std::array<std::size_t, 257> buckets{};
  for (K key : keys) ++buckets[((key >> shift) & 0xff) + 1];
  for (std::size_t d = 1; d <= 256; ++d) buckets[d] += buckets[d - 1];
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t slot = buckets[(keys[i] >> shift) & 0xff]++;
    key_scratch[slot] = keys[i];
    value_scratch[slot] = values[i];
  }
  std::copy(key_scratch.begin(), key_scratch.end(), keys.begin());
  std::copy(value_scratch.begin(), value_scratch.end(), values.begin());
}

}  // namespace detail

/// Sorts unsigned integer keys ascending with an LSD byte-wise radix sort.
/// Allocates sizeof(K) * n of device scratch for the duration of the call
/// (throws DeviceError if it does not fit, like any device allocation).
template <typename K>
double radix_sort(DeviceVector<K>& keys, StreamId stream = kDefaultStream,
                  double ready_after = 0.0) {
  static_assert(std::is_unsigned_v<K>, "radix_sort requires unsigned keys");
  DeviceContext& ctx = detail::ctx_of(keys);
  auto ks = keys.device_span();
  return launch_kernel(
      ctx, "radix_sort", stream, ctx.sort_cost(ks.size()), ready_after, [&] {
        DeviceVector<K> scratch(ctx, keys.size());
        for (int shift = 0; shift < static_cast<int>(sizeof(K)) * 8;
             shift += 8) {
          detail::radix_pass<K>(ks, scratch.device_span(), shift);
        }
      });
}

/// Stable key-value radix sort (thrust::sort_by_key with radix backend).
template <typename K, typename V>
double radix_sort_by_key(DeviceVector<K>& keys, DeviceVector<V>& values,
                         StreamId stream = kDefaultStream,
                         double ready_after = 0.0) {
  static_assert(std::is_unsigned_v<K>, "radix_sort requires unsigned keys");
  DeviceContext& ctx = detail::ctx_of(keys);
  GPCLUST_CHECK(values.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(keys.size() == values.size(), "key/value size mismatch");
  auto ks = keys.device_span();
  auto vs = values.device_span();
  return launch_kernel(
      ctx, "radix_sort_by_key", stream, ctx.sort_cost(ks.size()), ready_after,
      [&] {
        DeviceVector<K> key_scratch(ctx, keys.size());
        DeviceVector<V> value_scratch(ctx, values.size());
        for (int shift = 0; shift < static_cast<int>(sizeof(K)) * 8;
             shift += 8) {
          detail::radix_pass_kv<K, V>(ks, vs, key_scratch.device_span(),
                                      value_scratch.device_span(), shift);
        }
      });
}

}  // namespace gpclust::device
