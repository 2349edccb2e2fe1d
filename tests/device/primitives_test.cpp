#include "device/primitives.hpp"

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"

namespace gpclust::device {
namespace {

class PrimitivesTest : public ::testing::Test {
 protected:
  DeviceContext ctx_{DeviceSpec::small_test_device(8 << 20)};

  template <typename T>
  DeviceVector<T> upload(const std::vector<T>& host) {
    DeviceVector<T> dev(ctx_, host.size());
    copy_to_device<T>(dev, host);
    return dev;
  }

  template <typename T>
  std::vector<T> download(const DeviceVector<T>& dev) {
    std::vector<T> host(dev.size());
    copy_to_host<T>(host, dev);
    return host;
  }
};

TEST_F(PrimitivesTest, LaunchKernelFaultFiresBeforeBody) {
  fault::FaultPlan plan = fault::FaultPlan::parse("kernel_fail@kernel:0");
  ctx_.set_fault_plan(&plan);
  bool ran = false;
  EXPECT_THROW(launch_kernel(ctx_, "transform", kDefaultStream, 1.0, 0.0,
                             [&] { ran = true; }),
               KernelError);
  EXPECT_FALSE(ran);
  EXPECT_EQ(ctx_.timeline().num_ops(), 0u);

  // The plan fires at call index 0 only: the next launch runs and charges.
  launch_kernel(ctx_, "segmented_sort", kDefaultStream, 1.0, 0.0,
                [&] { ran = true; });
  EXPECT_TRUE(ran);
  EXPECT_EQ(ctx_.timeline().num_ops(), 1u);
  EXPECT_EQ(plan.injected(), 1u);
}

TEST_F(PrimitivesTest, LaunchKernelChargesCostFromReadyAfter) {
  const double cost = ctx_.transform_cost(1000);
  const double done = launch_kernel(ctx_, "transform", kDefaultStream, cost,
                                    /*ready_after=*/5.0);
  EXPECT_DOUBLE_EQ(done, 5.0 + cost);
  EXPECT_DOUBLE_EQ(ctx_.gpu_seconds(), cost);

  // Same stream, no dependency: queues behind the first kernel.
  const double next =
      launch_kernel(ctx_, "tabulate", kDefaultStream, 2.0, 0.0, [] {});
  EXPECT_DOUBLE_EQ(next, done + 2.0);
  EXPECT_DOUBLE_EQ(ctx_.gpu_seconds(), cost + 2.0);
}

TEST_F(PrimitivesTest, TransformAppliesFunctor) {
  auto in = upload<u32>({1, 2, 3, 4});
  DeviceVector<u32> out(ctx_, 4);
  transform_weighted(in, out, [](u32 x) { return x * x; }, 4);
  EXPECT_EQ(download(out), (std::vector<u32>{1, 4, 9, 16}));
}

TEST_F(PrimitivesTest, TransformChargesKernelTime) {
  auto in = upload<u32>(std::vector<u32>(1000, 1));
  DeviceVector<u32> out(ctx_, 1000);
  ctx_.reset_timeline();
  const double done =
      transform_weighted(in, out, [](u32 x) { return x; }, 123456);
  // Charged by DP cells, not by element count.
  EXPECT_DOUBLE_EQ(ctx_.gpu_seconds(), ctx_.align_cost(123456));
  EXPECT_DOUBLE_EQ(done, ctx_.makespan());
}

TEST_F(PrimitivesTest, MixedContextsRejected) {
  DeviceContext other(DeviceSpec::small_test_device(1 << 20));
  auto a = upload<u32>({1, 2, 3});
  DeviceVector<u32> b(other, 3);
  EXPECT_THROW(transform_weighted(a, b, [](u32 x) { return x; }, 3),
               InvalidArgument);
}

TEST_F(PrimitivesTest, TransformRejectsSmallOutput) {
  auto in = upload<u32>({1, 2, 3});
  DeviceVector<u32> small(ctx_, 1);
  EXPECT_THROW(transform_weighted(in, small, [](u32 x) { return x; }, 3),
               InvalidArgument);
}

TEST_F(PrimitivesTest, KernelCostScalesWithElements) {
  auto small = upload<u32>(std::vector<u32>(100, 1));
  auto big = upload<u32>(std::vector<u32>(100000, 1));
  DeviceVector<u32> out_small(ctx_, 100), out_big(ctx_, 100000);

  ctx_.reset_timeline();
  transform_weighted(small, out_small, [](u32 x) { return x; }, small.size());
  const double t_small = ctx_.gpu_seconds();
  ctx_.reset_timeline();
  transform_weighted(big, out_big, [](u32 x) { return x; }, big.size());
  const double t_big = ctx_.gpu_seconds();
  EXPECT_GT(t_big, t_small * 10);

  const std::vector<u64> small_offsets{0, 100};
  const std::vector<u64> big_offsets{0, 100000};
  EXPECT_GT(segmented_sort_cost<u32>(ctx_, big_offsets),
            segmented_sort_cost<u32>(ctx_, small_offsets) * 10);
}

class PrimitivesExtraTest : public PrimitivesTest {};

TEST_F(PrimitivesExtraTest, AllChargeKernelTime) {
  auto dev = upload<u32>(std::vector<u32>(1000, 1));
  DeviceVector<u32> out(ctx_, 1000);
  const std::vector<u64> offsets{0, 400, 1000};
  ctx_.reset_timeline();

  launch_kernel(ctx_, "segmented_sort", kDefaultStream,
                segmented_sort_cost<u32>(ctx_, offsets));
  const double after_sort = ctx_.gpu_seconds();
  EXPECT_GT(after_sort, 0.0);

  launch_kernel(ctx_, "transform", kDefaultStream, ctx_.transform_cost(1000),
                0.0, [] {});
  const double after_transform = ctx_.gpu_seconds();
  EXPECT_GT(after_transform, after_sort);

  transform_weighted(dev, out, [](u32 x) { return x; }, 1000);
  EXPECT_GT(ctx_.gpu_seconds(), after_transform);
  EXPECT_EQ(ctx_.timeline().num_ops(), 3u);
}

}  // namespace
}  // namespace gpclust::device
