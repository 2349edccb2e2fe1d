#pragma once
// Thrust-style parallel primitives over DeviceVector.
//
// These are the building blocks the paper names explicitly (§III-C): the
// shingling kernel is "two efficient primitives transform() and sorting()
// implemented in the Thrust library". Each primitive executes its real
// computation on the host thread pool (the simulated device's cores) and
// charges modeled device time on the context timeline. Every function
// returns the op's completion time so callers can express cross-stream
// dependencies (used by the asynchronous pipeline). Every kernel with a
// fault point launches through launch_kernel(), so the fault point, the
// host execution and the modeled charge always happen in that order.

#include <algorithm>
#include <functional>
#include <numeric>

#include "device/device_vector.hpp"
#include "device/fault_points.hpp"

namespace gpclust::device {

namespace detail {
template <typename T>
DeviceContext& ctx_of(const DeviceVector<T>& v) {
  GPCLUST_CHECK(v.context() != nullptr, "device vector is not allocated");
  return *v.context();
}
}  // namespace detail

/// Launches one modeled kernel: the kernel fault point (which may throw
/// KernelError), then `body` — the kernel's real computation on the host —
/// then the modeled `cost` charged on `stream`, starting no earlier than
/// `ready_after`. Returns the op's completion time.
template <typename Body>
double launch_kernel(DeviceContext& ctx, const char* primitive,
                     StreamId stream, double cost, double ready_after,
                     Body&& body) {
  detail::maybe_inject_kernel_fault(ctx, primitive);
  body();
  return ctx.timeline().enqueue(stream, OpKind::Kernel, cost, ready_after);
}

/// A kernel whose host computation happens elsewhere: a caller emulating
/// several kernels in one fused host pass charges each of them, with its
/// own fault point, through this overload and runs the fused work as the
/// last kernel's body.
inline double launch_kernel(DeviceContext& ctx, const char* primitive,
                            StreamId stream, double cost,
                            double ready_after = 0.0) {
  return launch_kernel(ctx, primitive, stream, cost, ready_after, [] {});
}

/// out[i] = f(in[i]) for i in [0, n). n defaults to in.size().
/// Models one map kernel of n elements.
template <typename T, typename U, typename F>
double transform(const DeviceVector<T>& in, DeviceVector<U>& out, F f,
                 StreamId stream = kDefaultStream, double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(in);
  GPCLUST_CHECK(out.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(out.size() >= in.size(), "output too small");
  auto src = in.device_span();
  auto dst = out.device_span();
  return launch_kernel(
      ctx, "transform", stream, ctx.transform_cost(src.size()), ready_after,
      [&] {
        ctx.pool().parallel_for(0, src.size(),
                                [&](std::size_t lo, std::size_t hi) {
                                  for (std::size_t i = lo; i < hi; ++i) {
                                    dst[i] = f(src[i]);
                                  }
                                });
      });
}

/// out[i] = f(in[i]) like transform(), but for kernels whose per-element
/// work is data-dependent: the modeled duration is charged from the
/// caller-supplied total work via DeviceContext::align_cost instead of the
/// element count. This is the batched Smith-Waterman verification kernel's
/// shape — one task per candidate pair, |a| * |b| DP cells per task.
template <typename T, typename U, typename F>
double transform_weighted(const DeviceVector<T>& in, DeviceVector<U>& out, F f,
                          std::size_t total_cells,
                          StreamId stream = kDefaultStream,
                          double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(in);
  GPCLUST_CHECK(out.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(out.size() >= in.size(), "output too small");
  auto src = in.device_span();
  auto dst = out.device_span();
  return launch_kernel(
      ctx, "transform_weighted", stream, ctx.align_cost(total_cells),
      ready_after, [&] {
        ctx.pool().parallel_for(0, src.size(),
                                [&](std::size_t lo, std::size_t hi) {
                                  for (std::size_t i = lo; i < hi; ++i) {
                                    dst[i] = f(src[i]);
                                  }
                                });
      });
}

/// data[i] = f(i) — a grid-stride "generate" kernel.
template <typename T, typename F>
double tabulate(DeviceVector<T>& data, F f, StreamId stream = kDefaultStream,
                double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto dst = data.device_span();
  return launch_kernel(
      ctx, "tabulate", stream, ctx.transform_cost(dst.size()), ready_after,
      [&] {
        ctx.pool().parallel_for(0, dst.size(),
                                [&](std::size_t lo, std::size_t hi) {
                                  for (std::size_t i = lo; i < hi; ++i) {
                                    dst[i] = f(i);
                                  }
                                });
      });
}

/// Whole-buffer comparison sort (thrust::sort).
template <typename T, typename Cmp = std::less<T>>
double sort(DeviceVector<T>& data, Cmp cmp = Cmp{},
            StreamId stream = kDefaultStream, double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto sp = data.device_span();
  return launch_kernel(ctx, "sort", stream, ctx.sort_cost(sp.size()),
                       ready_after,
                       [&] { std::sort(sp.begin(), sp.end(), cmp); });
}

/// Modeled duration of segmented_sort over `offsets` (num_segments + 1
/// entries) of elements of type T: the sort cost of every element, with the
/// spill penalty decided by the largest segment's bytes.
template <typename T>
double segmented_sort_cost(const DeviceContext& ctx,
                           std::span<const u64> offsets) {
  u64 max_segment = 0;
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    max_segment = std::max(max_segment, offsets[s + 1] - offsets[s]);
  }
  return ctx.segmented_sort_cost(
      offsets.empty() ? 0 : static_cast<std::size_t>(offsets.back()),
      static_cast<std::size_t>(max_segment) * sizeof(T));
}

/// Sorts each segment [offsets[s], offsets[s+1]) of `data` independently —
/// the segmented sort at the heart of the shingling kernel (Figure 4).
/// `offsets` has num_segments + 1 entries; offsets.back() == data.size().
/// Segments are distributed over the device's worker threads.
template <typename T>
double segmented_sort(DeviceVector<T>& data, std::span<const u64> offsets,
                      StreamId stream = kDefaultStream,
                      double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  GPCLUST_CHECK(!offsets.empty() && offsets.back() == data.size(),
                "offsets must cover the data exactly");
  auto sp = data.device_span();
  return launch_kernel(
      ctx, "segmented_sort", stream,
      segmented_sort_cost<T>(ctx, offsets), ready_after, [&] {
        ctx.pool().parallel_for(
            0, offsets.size() - 1, [&](std::size_t lo, std::size_t hi) {
              for (std::size_t s = lo; s < hi; ++s) {
                std::sort(
                    sp.begin() + static_cast<std::ptrdiff_t>(offsets[s]),
                    sp.begin() + static_cast<std::ptrdiff_t>(offsets[s + 1]));
              }
            });
      });
}

/// Key-value sort (thrust::sort_by_key): reorders both arrays so keys are
/// ascending, values following their keys. Stable.
template <typename K, typename V>
double sort_by_key(DeviceVector<K>& keys, DeviceVector<V>& values,
                   StreamId stream = kDefaultStream, double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(keys);
  GPCLUST_CHECK(values.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(keys.size() == values.size(), "key/value size mismatch");
  auto ks = keys.device_span();
  auto vs = values.device_span();
  return launch_kernel(
      ctx, "sort_by_key", stream, ctx.sort_cost(ks.size()), ready_after, [&] {
        std::vector<u64> perm(ks.size());
        std::iota(perm.begin(), perm.end(), u64{0});
        std::stable_sort(perm.begin(), perm.end(),
                         [&](u64 a, u64 b) { return ks[a] < ks[b]; });
        std::vector<K> tmp_k(ks.size());
        std::vector<V> tmp_v(vs.size());
        for (std::size_t i = 0; i < perm.size(); ++i) {
          tmp_k[i] = ks[perm[i]];
          tmp_v[i] = vs[perm[i]];
        }
        std::copy(tmp_k.begin(), tmp_k.end(), ks.begin());
        std::copy(tmp_v.begin(), tmp_v.end(), vs.begin());
      });
}

/// Sum-reduction (thrust::reduce). The result is returned to the host,
/// so a tiny D2H transfer is also charged, as Thrust does.
template <typename T>
T reduce(const DeviceVector<T>& data, T init,
         StreamId stream = kDefaultStream) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto sp = data.device_span();
  T total = init;
  const double done = launch_kernel(
      ctx, "reduce", stream, ctx.transform_cost(sp.size()), 0.0,
      [&] { total = std::accumulate(sp.begin(), sp.end(), init); });
  ctx.timeline().enqueue(stream, OpKind::CopyD2H, ctx.d2h_cost(sizeof(T)),
                         done);
  return total;
}

/// Exclusive prefix sum (thrust::exclusive_scan), in place.
template <typename T>
double exclusive_scan(DeviceVector<T>& data, T init,
                      StreamId stream = kDefaultStream,
                      double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto sp = data.device_span();
  return launch_kernel(ctx, "exclusive_scan", stream,
                       ctx.transform_cost(sp.size()), ready_after, [&] {
                         T running = init;
                         for (auto& x : sp) {
                           const T next = static_cast<T>(running + x);
                           x = running;
                           running = next;
                         }
                       });
}

/// data[i] = value for all i (thrust::fill).
template <typename T>
double fill(DeviceVector<T>& data, T value, StreamId stream = kDefaultStream,
            double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto sp = data.device_span();
  return launch_kernel(
      ctx, "fill", stream, ctx.transform_cost(sp.size()), ready_after, [&] {
        ctx.pool().parallel_for(0, sp.size(),
                                [&](std::size_t lo, std::size_t hi) {
                                  for (std::size_t i = lo; i < hi; ++i) {
                                    sp[i] = value;
                                  }
                                });
      });
}

/// Inclusive prefix sum (thrust::inclusive_scan), in place.
template <typename T>
double inclusive_scan(DeviceVector<T>& data,
                      StreamId stream = kDefaultStream,
                      double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto sp = data.device_span();
  return launch_kernel(ctx, "inclusive_scan", stream,
                       ctx.transform_cost(sp.size()), ready_after, [&] {
                         T running{};
                         for (auto& x : sp) {
                           running = static_cast<T>(running + x);
                           x = running;
                         }
                       });
}

/// Removes consecutive duplicates in place (thrust::unique); returns the
/// new logical element count. The allocation keeps its size; callers copy
/// out the leading `count` elements.
template <typename T>
std::size_t unique(DeviceVector<T>& data, StreamId stream = kDefaultStream) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto sp = data.device_span();
  std::size_t count = 0;
  launch_kernel(ctx, "unique", stream, ctx.transform_cost(sp.size()), 0.0,
                [&] {
                  count = static_cast<std::size_t>(
                      std::unique(sp.begin(), sp.end()) - sp.begin());
                });
  return count;
}

/// Number of elements satisfying pred (thrust::count_if). Charges the scan
/// kernel plus the scalar result transfer.
template <typename T, typename Pred>
std::size_t count_if(const DeviceVector<T>& data, Pred pred,
                     StreamId stream = kDefaultStream) {
  DeviceContext& ctx = detail::ctx_of(data);
  auto sp = data.device_span();
  std::size_t count = 0;
  const double done = launch_kernel(
      ctx, "count_if", stream, ctx.transform_cost(sp.size()), 0.0, [&] {
        count = static_cast<std::size_t>(
            std::count_if(sp.begin(), sp.end(), pred));
      });
  ctx.timeline().enqueue(stream, OpKind::CopyD2H,
                         ctx.d2h_cost(sizeof(std::size_t)), done);
  return count;
}

/// Stable-compacts elements satisfying pred into `out` (thrust::copy_if);
/// returns the number written. `out` must be at least as large as `in`.
template <typename T, typename Pred>
std::size_t copy_if(const DeviceVector<T>& in, DeviceVector<T>& out, Pred pred,
                    StreamId stream = kDefaultStream, double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(in);
  GPCLUST_CHECK(out.context() == &ctx, "vectors belong to different devices");
  GPCLUST_CHECK(out.size() >= in.size(), "output too small");
  auto src = in.device_span();
  auto dst = out.device_span();
  std::size_t count = 0;
  launch_kernel(ctx, "copy_if", stream, ctx.transform_cost(src.size()),
                ready_after, [&] {
                  for (const T& x : src) {
                    if (pred(x)) dst[count++] = x;
                  }
                });
  return count;
}

/// Segment-reduces runs of equal keys (thrust::reduce_by_key): writes one
/// (key, reduced value) per run into out_keys/out_values and returns the
/// run count. Output vectors must be at least as large as the input.
template <typename K, typename V, typename Op = std::plus<V>>
std::size_t reduce_by_key(const DeviceVector<K>& keys,
                          const DeviceVector<V>& values,
                          DeviceVector<K>& out_keys,
                          DeviceVector<V>& out_values, Op op = Op{},
                          StreamId stream = kDefaultStream) {
  DeviceContext& ctx = detail::ctx_of(keys);
  GPCLUST_CHECK(values.context() == &ctx && out_keys.context() == &ctx &&
                    out_values.context() == &ctx,
                "vectors belong to different devices");
  GPCLUST_CHECK(keys.size() == values.size(), "key/value size mismatch");
  GPCLUST_CHECK(out_keys.size() >= keys.size() &&
                    out_values.size() >= values.size(),
                "output too small");
  auto ks = keys.device_span();
  auto vs = values.device_span();
  auto ok = out_keys.device_span();
  auto ov = out_values.device_span();
  std::size_t runs = 0;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (runs > 0 && ok[runs - 1] == ks[i]) {
      ov[runs - 1] = op(ov[runs - 1], vs[i]);
    } else {
      ok[runs] = ks[i];
      ov[runs] = vs[i];
      ++runs;
    }
  }
  ctx.timeline().enqueue(stream, OpKind::Kernel, ctx.transform_cost(ks.size()),
                         0.0);
  return runs;
}

/// out[i] = in[map[i]] (thrust::gather).
template <typename T>
double gather(const DeviceVector<T>& in, const DeviceVector<u64>& map,
              DeviceVector<T>& out, StreamId stream = kDefaultStream,
              double ready_after = 0.0) {
  DeviceContext& ctx = detail::ctx_of(in);
  GPCLUST_CHECK(out.size() >= map.size(), "output too small");
  auto src = in.device_span();
  auto idx = map.device_span();
  auto dst = out.device_span();
  return launch_kernel(
      ctx, "gather", stream, ctx.transform_cost(idx.size()), ready_after, [&] {
        ctx.pool().parallel_for(
            0, idx.size(), [&](std::size_t lo, std::size_t hi) {
              for (std::size_t i = lo; i < hi; ++i) {
                GPCLUST_CHECK(idx[i] < src.size(), "gather index out of range");
                dst[i] = src[idx[i]];
              }
            });
      });
}

}  // namespace gpclust::device
