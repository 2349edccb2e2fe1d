#pragma once
// The kernel launches of the simulated device.
//
// The paper builds the shingling kernel from "two efficient primitives
// transform() and sorting() implemented in the Thrust library" (§III-C).
// The shingling pass emulates each trial's transform -> segmented sort ->
// top-s select as one fused host scan, charging each of the three kernels
// separately through launch_kernel(); the verify pass launches its batched
// score kernel through transform_weighted(). Every launch runs the kernel
// fault point, then the host execution, then the modeled charge on the
// context timeline, in that order, and returns the op's completion time so
// callers can express cross-stream dependencies.

#include <algorithm>

#include "device/device_vector.hpp"
#include "device/fault_points.hpp"

namespace gpclust::device {

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

/// out[i] = f(in[i]) for kernels whose per-element work is data-dependent:
/// the modeled duration is charged from the caller-supplied total work via
/// DeviceContext::align_cost instead of the element count. This is the
/// batched Smith-Waterman verification kernel's shape — one task per
/// candidate pair, |a| * |b| DP cells per task.
template <typename T, typename U, typename F>
double transform_weighted(const DeviceVector<T>& in, DeviceVector<U>& out, F f,
                          std::size_t total_cells,
                          StreamId stream = kDefaultStream,
                          double ready_after = 0.0) {
  GPCLUST_CHECK(in.context() != nullptr, "device vector is not allocated");
  DeviceContext& ctx = *in.context();
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

/// Modeled duration of a segmented sort over `offsets` (num_segments + 1
/// entries) of elements of type T — the per-segment sort of the shingling
/// kernel (Figure 4): the sort cost of every element, with the spill
/// penalty decided by the largest segment's bytes.
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

}  // namespace gpclust::device
