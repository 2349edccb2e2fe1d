#include "device/device_context.hpp"

namespace gpclust::device {

DeviceContext::DeviceContext(DeviceSpec spec, util::ThreadPool* pool)
    : spec_(std::move(spec)),
      arena_(spec_.global_memory_bytes),
      // Engine-exclusive: one compute front-end plus one DMA engine per
      // copy direction, like the K20's — streams overlap across kinds but
      // same-kind ops serialize (DESIGN.md §8).
      timeline_(/*num_streams=*/4, /*engine_exclusive=*/true),
      pool_(pool ? pool : &util::default_thread_pool()) {}

double DeviceContext::transform_cost(std::size_t elements) const {
  return spec_.kernel_launch_sec +
         static_cast<double>(elements) / spec_.transform_elems_per_sec;
}

double DeviceContext::segmented_sort_cost(std::size_t elements,
                                          std::size_t max_segment_bytes) const {
  const double base = spec_.kernel_launch_sec +
                      static_cast<double>(elements) / spec_.sort_elems_per_sec;
  if (max_segment_bytes <= spec_.shared_memory_per_block) return base;
  // Oversized segments spill to global memory; model a 4x throughput hit
  // on the whole pass (the spilling segments dominate it).
  return spec_.kernel_launch_sec + (base - spec_.kernel_launch_sec) * 4.0;
}

double DeviceContext::h2d_cost(std::size_t bytes) const {
  return spec_.transfer_latency_sec +
         static_cast<double>(bytes) / spec_.h2d_bytes_per_sec;
}

double DeviceContext::align_cost(std::size_t cells) const {
  return spec_.kernel_launch_sec +
         static_cast<double>(cells) / spec_.align_cells_per_sec;
}

double DeviceContext::d2h_cost(std::size_t bytes) const {
  return spec_.transfer_latency_sec +
         static_cast<double>(bytes) / spec_.d2h_bytes_per_sec;
}

}  // namespace gpclust::device
