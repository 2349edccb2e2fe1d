#pragma once
// The one batch scheduler every device pass runs on (DESIGN.md §7, §8):
// the lane layout over a stream budget, the batch cap, and the fault
// recovery ladder — pipeline drain, bounded retry with charged backoff,
// same-size retry after a drain, OOM batch halving, and the bit-identical
// CPU continuation after repeated unrecoverable faults. A pass (the
// shingling pass, the verify pass) supplies only its own parts through
// BatchPass: the batch body and its commit, the re-plan of the unconsumed
// remainder, and the CPU continuation.

#include <functional>
#include <string>
#include <vector>

#include "device/device_context.hpp"
#include "device/sim_timeline.hpp"
#include "fault/resilience.hpp"

namespace gpclust::device {

/// One pipeline lane's streams. A lane holds one batch in flight: it
/// computes on `compute` and copies results back on `copy`, so the batch's
/// D2H overlaps the next lane's H2D and kernels.
struct Lane {
  StreamId compute = kDefaultStream;
  StreamId copy = kDefaultStream;
};

/// Bookkeeping every device pass reports. The recovery counters are all
/// zero on a fault-free run.
struct BatchPipelineStats {
  std::size_t num_batches = 0;        ///< committed device batches
  std::size_t num_lanes = 0;          ///< pipeline lanes ((streams + 1) / 2)
  std::size_t num_retries = 0;        ///< transient-fault batch retries
  std::size_t num_batch_replans = 0;  ///< OOM-driven batch-size halvings
  std::size_t num_pipeline_drains = 0;  ///< faults that flushed other lanes
  bool cpu_fallback = false;          ///< the pass finished on the CPU
};

/// The pass-specific parts the pipeline drives. A batch is transactional:
/// run_batch either commits all of its effects or throws DeviceError (or a
/// subclass) with nothing committed.
struct BatchPass {
  /// True while some work is uncommitted.
  std::function<bool()> has_work;
  /// Runs the next batch of at most `cap` work units on `lane`, keeps its
  /// device buffers in lane slot `slot` until release_lane, and commits.
  std::function<void(std::size_t cap, const Lane& lane, std::size_t slot)>
      run_batch;
  /// Frees the device buffers held in lane slot `slot`.
  std::function<void(std::size_t slot)> release_lane;
  /// The faulted batch is abandoned: the next run_batch plans the
  /// unconsumed remainder afresh.
  std::function<void()> replan;
  /// Finishes every uncommitted work unit on the CPU, bit-identically.
  std::function<void()> finish_on_cpu;
};

class BatchPipeline {
 public:
  /// Lays out ceil(num_streams / 2) lanes: lane l computes on stream 2l
  /// and copies on stream 2l+1 (the last lane shares one stream when
  /// num_streams is odd; 1 is the fully synchronous schedule). Rejects 0.
  /// Recovery counters go to `tracer`; modeled retry backoff is charged
  /// under "<phase>.retry".
  BatchPipeline(DeviceContext& ctx, std::size_t num_streams,
                const fault::ResiliencePolicy& policy, obs::Tracer* tracer,
                std::string phase);

  std::size_t num_lanes() const { return lanes_.size(); }

  /// Runs `pass` to completion with batches of at most `cap` units,
  /// round-robin over the lanes, and fills the BatchPipelineStats fields
  /// of `stats`. A fault the policy cannot absorb propagates.
  void run(const BatchPass& pass, std::size_t cap, BatchPipelineStats& stats);

 private:
  DeviceContext& ctx_;
  std::vector<Lane> lanes_;
  fault::ResiliencePolicy policy_;
  obs::Tracer* tracer_;
  std::string phase_;
};

/// Binds a tracer and a fault plan to a context for one scope, restoring
/// the previous bindings on every exit path.
class ScopedBinding {
 public:
  ScopedBinding(DeviceContext& ctx, obs::Tracer* tracer,
                fault::FaultPlan* plan)
      : ctx_(ctx), tracer_(ctx.tracer()), plan_(ctx.fault_plan()) {
    ctx_.set_tracer(tracer);
    ctx_.set_fault_plan(plan);
  }
  ~ScopedBinding() {
    ctx_.set_tracer(tracer_);
    ctx_.set_fault_plan(plan_);
  }

  ScopedBinding(const ScopedBinding&) = delete;
  ScopedBinding& operator=(const ScopedBinding&) = delete;

 private:
  DeviceContext& ctx_;
  obs::Tracer* tracer_;
  fault::FaultPlan* plan_;
};

}  // namespace gpclust::device
