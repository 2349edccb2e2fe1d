#include "device/device_context.hpp"

#include <gtest/gtest.h>

namespace gpclust::device {
namespace {

TEST(DeviceSpec, K20PresetMatchesPaperHardware) {
  const auto spec = DeviceSpec::tesla_k20();
  EXPECT_EQ(spec.num_cores, 2496u);          // paper §IV-B
  EXPECT_EQ(spec.global_memory_bytes, 5ULL << 30);  // 5 GB board
  EXPECT_NEAR(spec.clock_ghz, 0.706, 1e-9);
  EXPECT_EQ(spec.warp_size, 32u);
}

TEST(DeviceSpec, TestPresetHasTinyMemory) {
  const auto spec = DeviceSpec::small_test_device(4096);
  EXPECT_EQ(spec.global_memory_bytes, 4096u);
}

TEST(DeviceContext, CostsScaleLinearlyInSize) {
  DeviceContext ctx(DeviceSpec::small_test_device());
  const double t1 = ctx.transform_cost(1000);
  const double t2 = ctx.transform_cost(2000);
  const double launch = ctx.spec().kernel_launch_sec;
  EXPECT_NEAR(t2 - launch, 2.0 * (t1 - launch), 1e-12);

  const double c1 = ctx.h2d_cost(1 << 20);
  const double c2 = ctx.h2d_cost(2 << 20);
  const double latency = ctx.spec().transfer_latency_sec;
  EXPECT_NEAR(c2 - latency, 2.0 * (c1 - latency), 1e-12);
}

TEST(DeviceContext, ZeroElementsStillPayLaunchLatency) {
  DeviceContext ctx(DeviceSpec::small_test_device());
  EXPECT_DOUBLE_EQ(ctx.transform_cost(0), ctx.spec().kernel_launch_sec);
  EXPECT_DOUBLE_EQ(ctx.d2h_cost(0), ctx.spec().transfer_latency_sec);
}

TEST(DeviceContext, SortCostsMoreThanTransformPerElement) {
  DeviceContext ctx(DeviceSpec::tesla_k20());
  EXPECT_GT(ctx.segmented_sort_cost(1 << 20, 0), ctx.transform_cost(1 << 20));
}

TEST(DeviceContext, ResetTimelineClearsAccounting) {
  DeviceContext ctx(DeviceSpec::small_test_device());
  ctx.timeline().enqueue(0, OpKind::Kernel, 1.0);
  EXPECT_GT(ctx.gpu_seconds(), 0.0);
  ctx.reset_timeline();
  EXPECT_DOUBLE_EQ(ctx.gpu_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(ctx.makespan(), 0.0);
}

TEST(DeviceContext, ArenaMatchesSpecCapacity) {
  DeviceContext ctx(DeviceSpec::small_test_device(12345));
  EXPECT_EQ(ctx.arena().capacity(), 12345u);
}

}  // namespace
}  // namespace gpclust::device
