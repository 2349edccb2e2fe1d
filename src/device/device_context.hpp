#pragma once
// DeviceContext: one simulated GPU — memory arena, event timeline, cost
// model and the host thread pool that stands in for the device's cores.
// Mirrors the role of a CUDA context; DeviceVector and the kernel launches
// in primitives.hpp all operate through one of these.

#include <cstddef>
#include <memory>

#include "device/device_spec.hpp"
#include "device/memory_arena.hpp"
#include "device/sim_timeline.hpp"
#include "util/thread_pool.hpp"

namespace gpclust::fault {
class FaultPlan;
}

namespace gpclust::device {

class DeviceContext {
 public:
  explicit DeviceContext(DeviceSpec spec,
                         util::ThreadPool* pool = nullptr);

  const DeviceSpec& spec() const { return spec_; }
  MemoryArena& arena() { return arena_; }
  const MemoryArena& arena() const { return arena_; }
  SimTimeline& timeline() { return timeline_; }
  const SimTimeline& timeline() const { return timeline_; }
  util::ThreadPool& pool() { return *pool_; }

  // --- cost model -------------------------------------------------------
  double transform_cost(std::size_t elements) const;
  /// Segmented sort: the base sort cost of `elements`, multiplied by the
  /// global-memory penalty when the largest segment exceeds per-block
  /// shared memory.
  double segmented_sort_cost(std::size_t elements,
                             std::size_t max_segment_bytes) const;
  double h2d_cost(std::size_t bytes) const;
  double d2h_cost(std::size_t bytes) const;
  /// Batched alignment kernel charged by total DP cells (sum of
  /// |a| * |b| over the batch's pair tasks), not element count.
  double align_cost(std::size_t cells) const;

  // --- accounting accessors (Table I columns) ----------------------------
  double gpu_seconds() const { return timeline_.busy(OpKind::Kernel); }
  double h2d_seconds() const { return timeline_.busy(OpKind::CopyH2D); }
  double d2h_seconds() const { return timeline_.busy(OpKind::CopyD2H); }
  /// Modeled device-side wall time respecting stream overlap.
  double makespan() const { return timeline_.makespan(); }
  /// Critical-path (non-overlapped) seconds per component: the share of the
  /// makespan attributable to kernels / H2D / D2H after stream overlap.
  /// The three sum to makespan(); see SimTimeline::exposed.
  double gpu_exposed_seconds() const {
    return timeline_.exposed(OpKind::Kernel);
  }
  double h2d_exposed_seconds() const {
    return timeline_.exposed(OpKind::CopyH2D);
  }
  double d2h_exposed_seconds() const {
    return timeline_.exposed(OpKind::CopyD2H);
  }

  /// Clears timing (not memory) state between runs.
  void reset_timeline() { timeline_.reset(); }

  // --- observability ------------------------------------------------------
  /// Attaches an obs tracer to the whole device: the timeline records each
  /// modeled op as a device-modeled span, the arena mirrors its high-water
  /// mark, and the transfer helpers count H2D/D2H bytes. Null detaches.
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    timeline_.set_tracer(tracer);
    arena_.set_tracer(tracer);
  }
  obs::Tracer* tracer() const { return tracer_; }

  // --- fault injection ----------------------------------------------------
  /// Attaches a deterministic fault plan to the whole device: the arena
  /// consults its "alloc" site, the transfer helpers "h2d"/"d2h", and
  /// every kernel launch "kernel". Null detaches.
  void set_fault_plan(fault::FaultPlan* plan) {
    fault_plan_ = plan;
    arena_.set_fault_plan(plan);
  }
  fault::FaultPlan* fault_plan() const { return fault_plan_; }

 private:
  DeviceSpec spec_;
  MemoryArena arena_;
  SimTimeline timeline_;
  util::ThreadPool* pool_;
  obs::Tracer* tracer_ = nullptr;
  fault::FaultPlan* fault_plan_ = nullptr;
};

}  // namespace gpclust::device
