// Device-arena hygiene (CLAUDE.md invariant): the arena must be empty
// after every pipeline run — including runs that die mid-batch with a
// DeviceError — and the tracer's "arena_peak_bytes" high-water counter
// must agree with the arena's own accounting on both paths.

#include <gtest/gtest.h>

#include "core/gpclust.hpp"
#include "device/device_vector.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"

namespace gpclust {
namespace {

graph::CsrGraph leak_test_graph() {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 9;
  cfg.min_family_size = 5;
  cfg.max_family_size = 18;
  cfg.num_singletons = 8;
  cfg.seed = 99;
  return graph::generate_planted_families(cfg).graph;
}

core::ShinglingParams leak_test_params() {
  core::ShinglingParams params;
  params.c1 = 10;
  params.c2 = 5;
  return params;
}

TEST(ArenaLeak, EmptyAfterEveryPipelineConfiguration) {
  const auto g = leak_test_graph();
  const auto params = leak_test_params();

  // Multi-lane pipelines keep several batches' buffers co-resident
  // mid-run; they too must all be back in the arena at the end.
  for (const std::size_t num_streams : {1u, 2u, 4u, 8u, 3u}) {
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    obs::Tracer tracer;
    core::GpClustOptions options;
    options.max_batch_elements = 73;  // several batches per pass
    options.num_streams = num_streams;
    options.tracer = &tracer;
    core::GpClust(ctx, params, options).cluster(g);

    EXPECT_EQ(ctx.arena().used(), 0u) << "streams=" << num_streams;
    EXPECT_EQ(ctx.arena().num_allocations(), 0u);
    EXPECT_GT(ctx.arena().peak(), 0u);
    EXPECT_EQ(tracer.counter("arena_peak_bytes"), ctx.arena().peak());
    // The tracer binding is scoped to the run.
    EXPECT_EQ(ctx.tracer(), nullptr);
  }
}

TEST(ArenaLeak, EmptyAfterMidRunOutOfMemoryError) {
  const auto g = leak_test_graph();
  const auto params = leak_test_params();

  // Size the arena so the batch's member upload fits but the per-trial
  // permutation buffer cannot: the pass throws DeviceError mid-batch,
  // after some allocations already succeeded.
  const std::size_t elems = g.adjacency().size();
  const std::size_t segs = g.num_vertices();
  const std::size_t capacity =
      sizeof(u32) * elems + sizeof(u64) * (segs + 1) + sizeof(u64) * elems / 2;
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(capacity));

  obs::Tracer tracer;
  core::GpClustOptions options;
  options.max_batch_elements = elems;  // force one oversized batch
  options.tracer = &tracer;
  core::GpClust gp(ctx, params, options);
  EXPECT_THROW(gp.cluster(g), DeviceError);

  // The unwind released everything that had been allocated.
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);
  // Allocations did happen before the failure, and the tracer's high-water
  // counter tracked them even though the run never finished.
  EXPECT_GT(ctx.arena().peak(), 0u);
  EXPECT_EQ(tracer.counter("arena_peak_bytes"), ctx.arena().peak());
  // The scoped tracer binding is undone even on the error path.
  EXPECT_EQ(ctx.tracer(), nullptr);
}

TEST(ArenaLeak, EmptyAfterMidTransferFaults) {
  const auto g = leak_test_graph();
  const auto params = leak_test_params();

  // Kill the pipeline at a transfer (H2D, then D2H) while device buffers
  // are live: the strong exception guarantee of DeviceVector plus RAII
  // unwind must leave the arena empty even though the fault fired between
  // an allocation and its matching release.
  for (const char* spec :
       {"xfer_fail@h2d:0", "xfer_fail@h2d:3", "xfer_fail@d2h:1",
        "kernel_fail@kernel:7"}) {
    auto plan = fault::FaultPlan::parse(spec);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    obs::Tracer tracer;
    core::GpClustOptions options;
    options.max_batch_elements = 73;
    options.tracer = &tracer;
    options.fault_plan = &plan;
    core::GpClust gp(ctx, params, options);
    EXPECT_THROW(gp.cluster(g), DeviceError) << spec;

    EXPECT_EQ(ctx.arena().used(), 0u) << spec;
    EXPECT_EQ(ctx.arena().num_allocations(), 0u) << spec;
    EXPECT_EQ(tracer.counter("faults_injected"), 1u) << spec;
    // Scoped bindings undone on the error path.
    EXPECT_EQ(ctx.tracer(), nullptr) << spec;
    EXPECT_EQ(ctx.fault_plan(), nullptr) << spec;
  }
}

TEST(ArenaLeak, EmptyAfterEveryResilienceRecoveryPath) {
  const auto g = leak_test_graph();
  const auto params = leak_test_params();

  // Recovery (not just unwind) must also keep the arena clean: replans,
  // retries and the CPU fallback all drain every device allocation.
  for (const char* spec :
       {"oom@alloc:3", "xfer_fail@h2d:2,xfer_fail@d2h:4",
        "kernel_fail@kernel:0-999999"}) {
    auto plan = fault::FaultPlan::parse(spec);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    core::GpClustOptions options;
    options.max_batch_elements = 73;
    options.fault_plan = &plan;
    options.resilience.mode = fault::ResilienceMode::Fallback;
    core::GpClust(ctx, params, options).cluster(g);

    EXPECT_EQ(ctx.arena().used(), 0u) << spec;
    EXPECT_EQ(ctx.arena().num_allocations(), 0u) << spec;
  }
}

TEST(ArenaLeak, DeviceVectorConstructionFaultReleasesReservation) {
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(1 << 20));
  {
    auto plan = fault::FaultPlan::parse("oom@alloc:1");
    ctx.set_fault_plan(&plan);
    device::DeviceVector<u64> ok(ctx, 128);  // alloc #0 succeeds
    EXPECT_EQ(ctx.arena().used(), 128 * sizeof(u64));
    EXPECT_THROW(device::DeviceVector<u64>(ctx, 64), DeviceError);
    // The failed vector holds nothing; only `ok` remains accounted.
    EXPECT_EQ(ctx.arena().used(), 128 * sizeof(u64));
    EXPECT_EQ(ctx.arena().num_allocations(), 1u);
    ctx.set_fault_plan(nullptr);
  }
  EXPECT_EQ(ctx.arena().used(), 0u);
}

}  // namespace
}  // namespace gpclust
