#pragma once
// DeviceVector<T>: the thrust::device_vector analog. Owns a block of
// simulated device memory (capacity-accounted in the context's arena) and
// is only legally touched inside a kernel launched through primitives.hpp
// or by the explicit copy functions below, which charge modeled transfer
// time on the context timeline.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "device/device_context.hpp"
#include "device/fault_points.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"

namespace gpclust::device {

template <typename T>
class DeviceVector {
 public:
  DeviceVector() = default;

  DeviceVector(DeviceContext& ctx, std::size_t size)
      : ctx_(&ctx), allocated_bytes_(size * sizeof(T)) {
    ctx_->arena().allocate(allocated_bytes_);
    // Strong exception safety: if the backing store cannot be created the
    // arena reservation must not leak (the destructor never runs when the
    // constructor throws).
    try {
      data_.resize(size);
    } catch (...) {
      ctx_->arena().release(allocated_bytes_);
      ctx_ = nullptr;
      allocated_bytes_ = 0;
      throw;
    }
  }

  ~DeviceVector() { release(); }

  DeviceVector(const DeviceVector&) = delete;
  DeviceVector& operator=(const DeviceVector&) = delete;

  DeviceVector(DeviceVector&& other) noexcept { swap(other); }
  DeviceVector& operator=(DeviceVector&& other) noexcept {
    if (this != &other) {
      release();
      swap(other);
    }
    return *this;
  }

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  std::size_t bytes() const { return data_.size() * sizeof(T); }
  DeviceContext* context() const { return ctx_; }

  /// Frees the device allocation.
  void release() {
    if (ctx_ != nullptr) {
      ctx_->arena().release(allocated_bytes_);
      ctx_ = nullptr;
      allocated_bytes_ = 0;
    }
    data_.clear();
    data_.shrink_to_fit();
  }

  // "Device-side" access for launched kernels. Host algorithm code must
  // not dereference these directly (same discipline as raw device pointers
  // in CUDA); use copy_to_host/copy_to_device.
  std::span<T> device_span() { return {data_.data(), data_.size()}; }
  std::span<const T> device_span() const {
    return {data_.data(), data_.size()};
  }

 private:
  void swap(DeviceVector& other) {
    std::swap(ctx_, other.ctx_);
    std::swap(data_, other.data_);
    std::swap(allocated_bytes_, other.allocated_bytes_);
  }

  DeviceContext* ctx_ = nullptr;
  std::vector<T> data_;
  std::size_t allocated_bytes_ = 0;
};

/// Synchronous host->device copy on `stream`; charges modeled H2D time.
/// Returns the op completion time on the timeline.
template <typename T>
double copy_to_device(DeviceVector<T>& dst, std::span<const T> src,
                      StreamId stream = kDefaultStream,
                      double ready_after = 0.0) {
  GPCLUST_CHECK(dst.context() != nullptr, "destination is not allocated");
  GPCLUST_CHECK(src.size() <= dst.size(), "device buffer too small");
  DeviceContext& ctx = *dst.context();
  detail::maybe_inject_transfer_fault(ctx, fault::FaultSite::H2D,
                                      src.size() * sizeof(T));
  std::copy(src.begin(), src.end(), dst.device_span().begin());
  obs::add_counter(ctx.tracer(), "h2d_bytes", src.size() * sizeof(T));
  return ctx.timeline().enqueue(stream, OpKind::CopyH2D,
                                ctx.h2d_cost(src.size() * sizeof(T)),
                                ready_after);
}

/// Synchronous device->host copy of dst.size() elements from the front of
/// `src`; charges modeled D2H time. Returns the op completion time.
template <typename T>
double copy_to_host(std::span<T> dst, const DeviceVector<T>& src,
                    StreamId stream = kDefaultStream,
                    double ready_after = 0.0) {
  GPCLUST_CHECK(src.context() != nullptr, "source is not allocated");
  GPCLUST_CHECK(dst.size() <= src.size(), "host buffer larger than source");
  DeviceContext& ctx = *src.context();
  detail::maybe_inject_transfer_fault(ctx, fault::FaultSite::D2H,
                                      dst.size() * sizeof(T));
  auto sp = src.device_span();
  std::copy(sp.begin(), sp.begin() + static_cast<std::ptrdiff_t>(dst.size()),
            dst.begin());
  obs::add_counter(ctx.tracer(), "d2h_bytes", dst.size() * sizeof(T));
  return ctx.timeline().enqueue(stream, OpKind::CopyD2H,
                                ctx.d2h_cost(dst.size() * sizeof(T)),
                                ready_after);
}

}  // namespace gpclust::device
