// device::BatchPipeline, the one batch scheduler and fault-recovery ladder
// of the device passes (DESIGN.md §7, §8), driven by a scripted fake pass:
// each rung of the ladder — drain, transient retry with charged backoff,
// same-size retry after a drain, OOM halving, the consecutive-failure
// count and the CPU continuation — is pinned call by call.

#include "device/batch_pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "device/device_vector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"

namespace gpclust::device {
namespace {

enum class Fault { None, Oom, Transfer, Kernel };

/// What the pipeline asked of the pass on one run_batch call.
struct Call {
  std::size_t cap;
  std::size_t lane_index;
  Lane lane;
  std::size_t arena_used;  ///< device bytes held when the call started
};

/// A pass over `units` work units whose run_batch call k allocates its
/// lane's buffer, then throws script[k] (if any) or commits min(cap, left)
/// units. Its buffers live in the context's arena, so drains and lane reuse
/// are visible as real device memory.
struct ScriptedPass {
  ScriptedPass(DeviceContext& ctx, std::size_t units, std::size_t lanes,
               std::vector<Fault> script)
      : ctx(ctx), units(units), lanes(lanes), script(std::move(script)) {}

  BatchPass pass() {
    BatchPass p;
    p.has_work = [this] { return done < units; };
    p.run_batch = [this](std::size_t cap, const Lane& lane, std::size_t slot) {
      const std::size_t k = calls.size();
      calls.push_back({cap, slot, lane, ctx.arena().used()});
      lanes[slot] = DeviceVector<u64>(ctx, 2);
      switch (k < script.size() ? script[k] : Fault::None) {
        case Fault::Oom: throw DeviceError("scripted oom");
        case Fault::Transfer: throw TransferError("scripted transfer fault");
        case Fault::Kernel: throw KernelError("scripted kernel fault");
        case Fault::None: break;
      }
      done += std::min(cap, units - done);
    };
    p.release_lane = [this](std::size_t slot) {
      lanes[slot] = DeviceVector<u64>{};
    };
    p.replan = [this] { ++replans; };
    p.finish_on_cpu = [this] {
      cpu_units = units - done;
      done = units;
    };
    return p;
  }

  DeviceContext& ctx;
  std::size_t units;
  std::size_t done = 0;
  std::vector<DeviceVector<u64>> lanes;
  std::vector<Fault> script;
  std::vector<Call> calls;
  std::size_t replans = 0;
  std::size_t cpu_units = 0;
};

constexpr std::size_t kBuffer = 2 * sizeof(u64);  // one lane's buffer

fault::ResiliencePolicy policy(fault::ResilienceMode mode) {
  fault::ResiliencePolicy p;
  p.mode = mode;
  return p;
}

class BatchPipelineTest : public ::testing::Test {
 protected:
  /// Runs `pass` with batches of at most `cap` over `streams` streams.
  BatchPipelineStats run(ScriptedPass& pass, std::size_t streams,
                         std::size_t cap, const fault::ResiliencePolicy& p) {
    BatchPipeline pipeline(ctx_, streams, p, &tracer_, "test");
    BatchPipelineStats stats;
    pipeline.run(pass.pass(), cap, stats);
    return stats;
  }

  DeviceContext ctx_{DeviceSpec::small_test_device(1 << 20)};
  obs::Tracer tracer_;
};

TEST_F(BatchPipelineTest, LanesPairComputeAndCopyStreamsRoundRobin) {
  ScriptedPass pass(ctx_, 5, 2, {});
  const auto stats = run(pass, 3, 1, policy(fault::ResilienceMode::Off));
  EXPECT_EQ(stats.num_lanes, 2u);
  EXPECT_EQ(stats.num_batches, 5u);
  ASSERT_EQ(pass.calls.size(), 5u);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(pass.calls[k].lane_index, k % 2);
    // Lane 0 computes on stream 0 and copies on 1; with an odd budget the
    // last lane shares stream 2 for both.
    EXPECT_EQ(pass.calls[k].lane.compute, k % 2 == 0 ? 0 : 2);
    EXPECT_EQ(pass.calls[k].lane.copy, k % 2 == 0 ? 1 : 2);
  }
  // From the third batch on, reusing a lane retires only its own previous
  // batch: the other lane's batch stays co-resident.
  EXPECT_EQ(pass.calls[0].arena_used, 0u);
  EXPECT_EQ(pass.calls[1].arena_used, kBuffer);
  EXPECT_EQ(pass.calls[2].arena_used, kBuffer);
  EXPECT_EQ(stats.num_retries + stats.num_batch_replans +
                stats.num_pipeline_drains,
            0u);
  EXPECT_FALSE(stats.cpu_fallback);
}

TEST_F(BatchPipelineTest, RejectsZeroStreams) {
  EXPECT_THROW(BatchPipeline(ctx_, 0, policy(fault::ResilienceMode::Off),
                             nullptr, "test"),
               InvalidArgument);
}

TEST_F(BatchPipelineTest, OffModePropagatesTheFaultAfterDraining) {
  ScriptedPass pass(ctx_, 4, 2, {Fault::None, Fault::Kernel});
  EXPECT_THROW(run(pass, 4, 1, policy(fault::ResilienceMode::Off)),
               KernelError);
  EXPECT_EQ(tracer_.counter("pipeline_drains"), 1u);
  EXPECT_EQ(ctx_.arena().used(), 0u);
}

TEST_F(BatchPipelineTest, TransientFaultRetriesTheSameBatchWithBackoff) {
  ScriptedPass pass(ctx_, 2, 1, {Fault::Kernel, Fault::Transfer});
  const auto stats = run(pass, 1, 2, policy(fault::ResilienceMode::Retry));
  EXPECT_EQ(stats.num_retries, 2u);
  EXPECT_EQ(tracer_.counter("retries"), 2u);
  EXPECT_EQ(stats.num_batches, 1u);
  ASSERT_EQ(pass.calls.size(), 3u);
  for (const Call& c : pass.calls) {
    EXPECT_EQ(c.cap, 2u);
    EXPECT_EQ(c.arena_used, 0u);
  }
  EXPECT_EQ(pass.replans, 0u);
  // Backoff 1e-4 * 2^(k-1) for retries k = 1, 2: modeled device time.
  EXPECT_DOUBLE_EQ(ctx_.makespan(), 3e-4);
  EXPECT_DOUBLE_EQ(ctx_.gpu_seconds(), 3e-4);
}

TEST_F(BatchPipelineTest, BackoffIsChargedToTheFaultedLanesComputeStream) {
  ScriptedPass pass(ctx_, 2, 2, {Fault::None, Fault::Kernel});
  const auto stats = run(pass, 4, 1, policy(fault::ResilienceMode::Retry));
  EXPECT_EQ(stats.num_retries, 1u);
  // The transient fault also drained lane 0's co-resident batch.
  EXPECT_EQ(stats.num_pipeline_drains, 1u);
  EXPECT_DOUBLE_EQ(ctx_.timeline().stream_cursor(2), 1e-4);
  EXPECT_DOUBLE_EQ(ctx_.timeline().stream_cursor(0), 0.0);
}

TEST_F(BatchPipelineTest, ExhaustedRetriesPropagateInRetryMode) {
  ScriptedPass pass(ctx_, 2, 1, std::vector<Fault>(4, Fault::Kernel));
  EXPECT_THROW(run(pass, 1, 2, policy(fault::ResilienceMode::Retry)),
               KernelError);
  EXPECT_EQ(pass.calls.size(), 4u);  // the first try plus max_retries
  EXPECT_EQ(tracer_.counter("retries"), 3u);
}

TEST_F(BatchPipelineTest, OomHalvesTheCapAndReplans) {
  ScriptedPass pass(ctx_, 8, 1, {Fault::Oom, Fault::Oom});
  const auto stats = run(pass, 1, 8, policy(fault::ResilienceMode::Retry));
  EXPECT_EQ(stats.num_batch_replans, 2u);
  EXPECT_EQ(tracer_.counter("batch_replans"), 2u);
  EXPECT_EQ(pass.replans, 2u);
  ASSERT_EQ(pass.calls.size(), 6u);
  EXPECT_EQ(pass.calls[0].cap, 8u);
  EXPECT_EQ(pass.calls[1].cap, 4u);
  for (std::size_t k = 2; k < 6; ++k) {
    EXPECT_EQ(pass.calls[k].cap, 2u);  // the halved cap holds for the rest
  }
  EXPECT_EQ(stats.num_batches, 4u);
}

TEST_F(BatchPipelineTest, OomWhileOtherLanesHoldBuffersRetriesAtTheSameSize) {
  ScriptedPass pass(ctx_, 8, 2, {Fault::None, Fault::Oom});
  const auto stats = run(pass, 4, 2, policy(fault::ResilienceMode::Retry));
  EXPECT_EQ(stats.num_pipeline_drains, 1u);
  EXPECT_EQ(tracer_.counter("pipeline_drains"), 1u);
  EXPECT_EQ(stats.num_batch_replans, 0u);
  EXPECT_EQ(pass.replans, 0u);
  ASSERT_EQ(pass.calls.size(), 5u);
  // Call 1 faulted on lane 1 while lane 0 held its batch; the drain freed
  // it and call 2 retried lane 1 at the same size on an empty arena.
  EXPECT_EQ(pass.calls[1].arena_used, kBuffer);
  EXPECT_EQ(pass.calls[2].lane_index, 1u);
  EXPECT_EQ(pass.calls[2].cap, 2u);
  EXPECT_EQ(pass.calls[2].arena_used, 0u);
  EXPECT_EQ(stats.num_batches, 4u);
}

TEST_F(BatchPipelineTest, OomAtTheFloorPropagatesInRetryMode) {
  auto p = policy(fault::ResilienceMode::Retry);
  p.min_batch_elements = 4;
  ScriptedPass pass(ctx_, 8, 1, {Fault::Oom});
  EXPECT_THROW(run(pass, 1, 4, p), DeviceError);
  EXPECT_EQ(pass.replans, 0u);
}

TEST_F(BatchPipelineTest, RepeatedUnrecoverableFaultsFinishOnTheCpu) {
  // Each unrecoverable failure is the first try plus three retries; the
  // second in a row switches the rest of the pass to the CPU.
  ScriptedPass pass(ctx_, 6, 1,
                    {Fault::None, Fault::Kernel, Fault::Kernel, Fault::Kernel,
                     Fault::Kernel, Fault::Kernel, Fault::Kernel,
                     Fault::Kernel, Fault::Kernel});
  const auto stats = run(pass, 1, 2, policy(fault::ResilienceMode::Fallback));
  EXPECT_EQ(stats.num_batches, 1u);
  EXPECT_EQ(stats.num_retries, 6u);
  EXPECT_EQ(pass.replans, 2u);
  EXPECT_TRUE(stats.cpu_fallback);
  EXPECT_EQ(tracer_.counter("cpu_fallbacks"), 1u);
  EXPECT_EQ(pass.cpu_units, 4u);
  EXPECT_EQ(pass.calls.size(), 9u);
  EXPECT_EQ(ctx_.arena().used(), 0u);
}

TEST_F(BatchPipelineTest, ACommittedBatchResetsTheFailureCount) {
  const std::vector<Fault> failure(4, Fault::Kernel);
  std::vector<Fault> script = failure;
  script.push_back(Fault::None);
  script.insert(script.end(), failure.begin(), failure.end());
  ScriptedPass pass(ctx_, 3, 1, script);
  const auto stats = run(pass, 1, 1, policy(fault::ResilienceMode::Fallback));
  EXPECT_FALSE(stats.cpu_fallback);
  EXPECT_EQ(pass.cpu_units, 0u);
  EXPECT_EQ(stats.num_batches, 3u);
  EXPECT_EQ(pass.replans, 2u);
}

TEST_F(BatchPipelineTest, OomAtTheFloorCountsTowardTheCpuFallback) {
  auto p = policy(fault::ResilienceMode::Fallback);
  p.min_batch_elements = 4;
  ScriptedPass pass(ctx_, 8, 1, {Fault::Oom, Fault::Oom});
  const auto stats = run(pass, 1, 4, p);
  EXPECT_EQ(stats.num_batch_replans, 0u);
  EXPECT_TRUE(stats.cpu_fallback);
  EXPECT_EQ(pass.cpu_units, 8u);
}

TEST(ScopedBinding, BindsForTheScopeAndRestoresOnExit) {
  DeviceContext ctx(DeviceSpec::small_test_device(1 << 20));
  obs::Tracer outer, inner;
  fault::FaultPlan outer_plan, inner_plan;
  ctx.set_tracer(&outer);
  ctx.set_fault_plan(&outer_plan);
  {
    const ScopedBinding bind(ctx, &inner, &inner_plan);
    EXPECT_EQ(ctx.tracer(), &inner);
    EXPECT_EQ(ctx.fault_plan(), &inner_plan);
  }
  EXPECT_EQ(ctx.tracer(), &outer);
  EXPECT_EQ(ctx.fault_plan(), &outer_plan);
}

}  // namespace
}  // namespace gpclust::device
