// The k-stream pipeline scheduler (DESIGN.md §8): engine-exclusive
// SimTimeline semantics, exposed critical-path accounting, the modeled
// makespan's behavior over the stream count, and bit-identity of the
// partition for every {streams} x {resilience} combination
// (CLAUDE.md invariant) — including under a chaos fault plan, with the
// arena empty after every run.

#include <gtest/gtest.h>

#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "device/sim_timeline.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"

namespace gpclust {
namespace {

// --- SimTimeline semantics ------------------------------------------------

TEST(StreamOverlap, EngineExclusiveSerializesSameKindAcrossStreams) {
  device::SimTimeline tl(4, /*engine_exclusive=*/true);
  const double k0 = tl.enqueue(0, device::OpKind::Kernel, 1.0);
  const double k1 = tl.enqueue(2, device::OpKind::Kernel, 1.0);
  EXPECT_DOUBLE_EQ(k0, 1.0);
  EXPECT_DOUBLE_EQ(k1, 2.0);  // one compute front-end: no same-kind overlap

  // A copy overlaps both kernels: different engine.
  const double c0 = tl.enqueue(1, device::OpKind::CopyD2H, 0.5);
  EXPECT_DOUBLE_EQ(c0, 0.5);
  EXPECT_DOUBLE_EQ(tl.makespan(), 2.0);
}

TEST(StreamOverlap, NonExclusiveTimelineKeepsLegacyOverlap) {
  device::SimTimeline tl(4, /*engine_exclusive=*/false);
  tl.enqueue(0, device::OpKind::Kernel, 1.0);
  const double k1 = tl.enqueue(2, device::OpKind::Kernel, 1.0);
  EXPECT_DOUBLE_EQ(k1, 1.0);  // same-kind ops overlap freely
}

TEST(StreamOverlap, ExposedSecondsSumToMakespan) {
  device::SimTimeline tl(4, /*engine_exclusive=*/true);
  tl.enqueue(0, device::OpKind::CopyH2D, 0.25);
  tl.enqueue(0, device::OpKind::Kernel, 1.0);
  tl.enqueue(1, device::OpKind::CopyD2H, 0.75);  // overlaps the kernel
  tl.enqueue(0, device::OpKind::Kernel, 0.5);
  tl.enqueue(1, device::OpKind::CopyD2H, 1.25);  // outruns the kernel frontier

  const double sum = tl.exposed(device::OpKind::Kernel) +
                     tl.exposed(device::OpKind::CopyH2D) +
                     tl.exposed(device::OpKind::CopyD2H);
  EXPECT_DOUBLE_EQ(sum, tl.makespan());
  // The H2D ran on an empty timeline: fully exposed.
  EXPECT_DOUBLE_EQ(tl.exposed(device::OpKind::CopyH2D), 0.25);
  // First D2H (0.00-0.75) hid entirely behind the kernel frontier; the
  // second (0.75-2.00) ran past it by 0.25 s — only that tail is exposed.
  EXPECT_DOUBLE_EQ(tl.exposed(device::OpKind::CopyD2H), 0.25);
  EXPECT_DOUBLE_EQ(tl.busy(device::OpKind::CopyD2H), 2.0);
}

TEST(StreamOverlap, ExposedSplitDoesNotDependOnEnqueueOrder) {
  // A shingling lane's pattern: a trial's kernel, its result copy on the
  // copy stream, and the next trial's kernel, which runs beside the copy.
  // Whichever of the two is enqueued first, the copy is the hidden one.
  for (bool copy_first : {true, false}) {
    SCOPED_TRACE(copy_first ? "copy first" : "kernel first");
    device::SimTimeline tl(2, /*engine_exclusive=*/true);
    const double k0 = tl.enqueue(0, device::OpKind::Kernel, 1.0);
    if (copy_first) tl.enqueue(1, device::OpKind::CopyD2H, 0.5, k0);
    tl.enqueue(0, device::OpKind::Kernel, 1.0);
    if (!copy_first) tl.enqueue(1, device::OpKind::CopyD2H, 0.5, k0);
    EXPECT_DOUBLE_EQ(tl.makespan(), 2.0);
    EXPECT_DOUBLE_EQ(tl.exposed(device::OpKind::Kernel), 2.0);
    EXPECT_DOUBLE_EQ(tl.exposed(device::OpKind::CopyD2H), 0.0);
  }
}

TEST(StreamOverlap, ExposedSplitRanksUploadsOverDownloadsAndChargesIdleTime) {
  device::SimTimeline tl(3, /*engine_exclusive=*/true);
  tl.enqueue(0, device::OpKind::CopyD2H, 1.0);
  tl.enqueue(1, device::OpKind::CopyH2D, 1.0);  // beside the download
  // Starts after an idle second, which it ends: charged to the kernel.
  tl.enqueue(2, device::OpKind::Kernel, 0.5, /*ready_after=*/2.0);
  EXPECT_DOUBLE_EQ(tl.makespan(), 2.5);
  EXPECT_DOUBLE_EQ(tl.exposed(device::OpKind::CopyH2D), 1.0);
  EXPECT_DOUBLE_EQ(tl.exposed(device::OpKind::CopyD2H), 0.0);
  EXPECT_DOUBLE_EQ(tl.exposed(device::OpKind::Kernel), 1.5);
}

TEST(StreamOverlap, EnsureStreamsGrowsAndNeverShrinks) {
  device::SimTimeline tl(1);
  EXPECT_EQ(tl.num_streams(), 1u);
  tl.ensure_streams(6);
  EXPECT_EQ(tl.num_streams(), 6u);
  tl.ensure_streams(2);
  EXPECT_EQ(tl.num_streams(), 6u);
  tl.enqueue(5, device::OpKind::Kernel, 1.0);
  EXPECT_DOUBLE_EQ(tl.makespan(), 1.0);
}

// --- pipeline makespan behavior ------------------------------------------

graph::CsrGraph overlap_test_graph() {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 14;
  cfg.min_family_size = 6;
  cfg.max_family_size = 30;
  cfg.num_singletons = 10;
  cfg.seed = 777;
  return graph::generate_planted_families(cfg).graph;
}

core::ShinglingParams overlap_test_params() {
  core::ShinglingParams params;
  params.c1 = 12;
  params.c2 = 6;
  return params;
}

core::GpClustReport run_with_streams(const graph::CsrGraph& g,
                                     std::size_t streams) {
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  core::GpClustOptions options;
  options.max_batch_elements = 97;  // same batch partition for every k
  options.num_streams = streams;
  core::GpClustReport report;
  core::GpClust(ctx, overlap_test_params(), options).cluster(g, &report);
  EXPECT_EQ(ctx.arena().used(), 0u) << "streams=" << streams;
  return report;
}

TEST(StreamOverlap, MakespanMonotonicallyNonIncreasingInStreamCount) {
  const auto g = overlap_test_graph();
  double previous = -1.0;
  for (std::size_t streams : {1u, 2u, 4u, 8u}) {
    const auto report = run_with_streams(g, streams);
    EXPECT_EQ(report.pass1.num_lanes, (streams + 1) / 2);
    if (previous >= 0.0) {
      EXPECT_LE(report.device_makespan, previous) << "streams=" << streams;
    }
    previous = report.device_makespan;
  }
}

TEST(StreamOverlap, OneStreamMatchesSynchronousEngine) {
  const auto g = overlap_test_graph();
  const auto report = run_with_streams(g, 1);
  // The paper's synchronous behavior: no overlap at all, so the makespan
  // degenerates to the sum of the per-component busy times.
  EXPECT_NEAR(report.device_makespan,
              report.gpu_seconds + report.h2d_seconds + report.d2h_seconds,
              1e-12);
  // And everything is on the critical path.
  EXPECT_NEAR(report.gpu_exposed_seconds, report.gpu_seconds, 1e-12);
  EXPECT_NEAR(report.h2d_exposed_seconds, report.h2d_seconds, 1e-12);
  EXPECT_NEAR(report.d2h_exposed_seconds, report.d2h_seconds, 1e-12);
}

TEST(StreamOverlap, TwoStreamsHideTransfersBehindCompute) {
  const auto g = overlap_test_graph();
  const auto one = run_with_streams(g, 1);
  const auto two = run_with_streams(g, 2);
  // Same modeled work, overlapped: busy totals match the synchronous
  // engine exactly while the dedicated copy stream shrinks the makespan.
  EXPECT_DOUBLE_EQ(two.gpu_seconds, one.gpu_seconds);
  EXPECT_DOUBLE_EQ(two.d2h_seconds, one.d2h_seconds);
  EXPECT_LT(two.device_makespan, one.device_makespan);
  EXPECT_LT(two.d2h_exposed_seconds, one.d2h_exposed_seconds);
}

TEST(StreamOverlap, FourStreamsBeatTwoByHidingBatchUploads) {
  const auto g = overlap_test_graph();
  const auto two = run_with_streams(g, 2);
  const auto four = run_with_streams(g, 4);
  // Two lanes upload batch i+1 while batch i computes: a strict gain over
  // the single-lane async overlap whenever a pass has several batches.
  ASSERT_GT(two.pass1.num_batches, 2u);
  EXPECT_LT(four.device_makespan, two.device_makespan);
  EXPECT_LT(four.h2d_exposed_seconds, two.h2d_exposed_seconds);
}

TEST(StreamOverlap, ExposedReportColumnsSumToMakespan) {
  const auto g = overlap_test_graph();
  for (std::size_t streams : {1u, 2u, 4u, 8u}) {
    const auto report = run_with_streams(g, streams);
    EXPECT_NEAR(report.gpu_exposed_seconds + report.h2d_exposed_seconds +
                    report.d2h_exposed_seconds,
                report.device_makespan, 1e-9)
        << "streams=" << streams;
  }
}

// --- bit-identity across the whole pipeline parameter space ---------------

TEST(StreamOverlap, StreamsShardsAndResilienceAllMatchSerial) {
  const auto g = overlap_test_graph();
  const auto params = overlap_test_params();
  auto serial = core::SerialShingler(params).cluster(g);
  serial.normalize();
  const u64 expected = serial.digest();

  // A chaos-style schedule touching every fault site; Fallback mode must
  // absorb all of it without changing a single cluster.
  const char* kChaosSpec =
      "xfer_fail@h2d:2,kernel_fail@kernel:9,oom@alloc:11,xfer_fail@d2h:25";

  for (std::size_t streams : {1u, 2u, 4u, 8u}) {
    for (bool chaos : {false, true}) {
      fault::FaultPlan plan;
      device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
      core::GpClustOptions options;
      options.max_batch_elements = 97;
      options.num_streams = streams;
      if (chaos) {
        plan = fault::FaultPlan::parse(kChaosSpec);
        options.fault_plan = &plan;
        options.resilience.mode = fault::ResilienceMode::Fallback;
      }
      auto result = core::GpClust(ctx, params, options).cluster(g);
      result.normalize();
      EXPECT_EQ(result.digest(), expected)
          << "streams=" << streams << " chaos=" << chaos;
      EXPECT_EQ(ctx.arena().used(), 0u)
          << "streams=" << streams << " chaos=" << chaos;
      EXPECT_EQ(ctx.arena().num_allocations(), 0u);
    }
  }
}

TEST(StreamOverlap, MidPipelineOomDrainsLanesAndRetriesAtFullSize) {
  const auto g = overlap_test_graph();
  const auto params = overlap_test_params();
  auto serial = core::SerialShingler(params).cluster(g);
  serial.normalize();

  // With 4 lanes several batches are co-resident; an injected OOM while
  // other lanes hold buffers must drain the pipeline and retry the same
  // batch size (the drain freed the memory) instead of halving it.
  auto plan = fault::FaultPlan::parse("oom@alloc:17");
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  core::GpClustOptions options;
  options.max_batch_elements = 97;
  options.num_streams = 8;
  options.fault_plan = &plan;
  options.resilience.mode = fault::ResilienceMode::Retry;
  core::GpClustReport report;
  auto result = core::GpClust(ctx, params, options).cluster(g, &report);
  result.normalize();

  EXPECT_EQ(result.digest(), serial.digest());
  EXPECT_GE(report.pass1.num_pipeline_drains, 1u);
  EXPECT_EQ(report.pass1.num_batch_replans, 0u);
  EXPECT_EQ(ctx.arena().used(), 0u);
}

TEST(StreamOverlap, SingleLaneKeepsSeedResilienceSemantics) {
  const auto g = overlap_test_graph();
  const auto params = overlap_test_params();

  // streams=1: nothing is ever co-resident, so a fault can never count a
  // pipeline drain and OOM goes straight to the batch-halving ladder.
  auto plan = fault::FaultPlan::parse("oom@alloc:6");
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  core::GpClustOptions options;
  options.max_batch_elements = 97;
  options.num_streams = 1;
  options.fault_plan = &plan;
  options.resilience.mode = fault::ResilienceMode::Retry;
  core::GpClustReport report;
  core::GpClust(ctx, params, options).cluster(g, &report);

  EXPECT_EQ(report.pass1.num_pipeline_drains +
                report.pass2.num_pipeline_drains,
            0u);
  EXPECT_GE(report.pass1.num_batch_replans +
                report.pass2.num_batch_replans,
            1u);
}

}  // namespace
}  // namespace gpclust
