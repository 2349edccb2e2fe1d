// FaultPlan: spec grammar round trips, deterministic per-site call
// counting, and thread-safety of the shared schedule.

#include <gtest/gtest.h>

#include <thread>

#include "fault/fault_plan.hpp"
#include "fault/resilience.hpp"

namespace gpclust::fault {
namespace {

TEST(FaultPlan, ParsesEverySiteAndRoundTrips) {
  const std::string spec =
      "oom@alloc:17,xfer_fail@h2d:3,xfer_fail@d2h:0,kernel_fail@kernel:5,"
      "comm_fail@send:2,comm_fail@recv:9,rank_down@2";
  auto plan = FaultPlan::parse(spec);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.is_rank_down(2));
  EXPECT_FALSE(plan.is_rank_down(0));
  EXPECT_EQ(plan.num_ranks_down(), 1u);
  // Canonical string parses back to an equivalent plan.
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
}

TEST(FaultPlan, RangesCollapseInCanonicalForm) {
  auto plan = FaultPlan::parse("kernel_fail@kernel:3-6,kernel_fail@kernel:7");
  EXPECT_EQ(plan.to_string(), "kernel_fail@kernel:3-7");
  auto sparse = FaultPlan::parse("oom@alloc:1,oom@alloc:3");
  EXPECT_EQ(sparse.to_string(), "oom@alloc:1,oom@alloc:3");
  // Overlapping, nested and touching entries merge in any order.
  auto merged = FaultPlan::parse(
      "oom@alloc:5-9,oom@alloc:20,oom@alloc:0-3,oom@alloc:6,oom@alloc:4,"
      "oom@alloc:8-12,oom@alloc:14");
  EXPECT_EQ(merged.to_string(), "oom@alloc:0-12,oom@alloc:14,oom@alloc:20");
}

TEST(FaultPlan, FullWidthRangeIsOneEntryAndFiresEverywhere) {
  const std::string spec = "kernel_fail@kernel:0-18446744073709551615";
  auto plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.to_string(), spec);
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), spec);
  EXPECT_TRUE(plan.should_fault(FaultSite::Kernel));  // call 0
  for (u64 call = 1; call < 1000000; ++call) {
    plan.should_fault(FaultSite::Kernel);
  }
  EXPECT_TRUE(plan.should_fault(FaultSite::Kernel));  // call 10^6
  EXPECT_EQ(plan.injected(), 1000001u);
  // A later entry inside the range changes nothing.
  plan.add(FaultSite::Kernel, 18446744073709551615u);
  EXPECT_EQ(plan.to_string(), spec);
}

TEST(FaultPlan, ShouldFaultFiresAtExactCallIndices) {
  auto plan = FaultPlan::parse("xfer_fail@h2d:1,xfer_fail@h2d:3-4");
  // Calls 0..5 at the h2d site: fires at 1, 3, 4 only.
  const bool expected[] = {false, true, false, true, true, false};
  for (bool e : expected) EXPECT_EQ(plan.should_fault(FaultSite::H2D), e);
  EXPECT_EQ(plan.calls(FaultSite::H2D), 6u);
  EXPECT_EQ(plan.injected(), 3u);
  // Other sites have independent counters.
  EXPECT_EQ(plan.calls(FaultSite::D2H), 0u);
  EXPECT_FALSE(plan.should_fault(FaultSite::D2H));
}

TEST(FaultPlan, ResetCountersReplaysIdentically) {
  auto plan = FaultPlan::parse("oom@alloc:0");
  EXPECT_TRUE(plan.should_fault(FaultSite::Alloc));
  EXPECT_FALSE(plan.should_fault(FaultSite::Alloc));
  plan.reset_counters();
  EXPECT_EQ(plan.injected(), 0u);
  EXPECT_TRUE(plan.should_fault(FaultSite::Alloc));
}

TEST(FaultPlan, CopyPreservesScheduleAndCounters) {
  auto plan = FaultPlan::parse("oom@alloc:1");
  EXPECT_FALSE(plan.should_fault(FaultSite::Alloc));
  FaultPlan copy = plan;  // counter at 1: next alloc call fires
  EXPECT_TRUE(copy.should_fault(FaultSite::Alloc));
  EXPECT_TRUE(plan.should_fault(FaultSite::Alloc));  // original unaffected
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("oom"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("oom@alloc"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("oom@gpu:1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("oom@alloc:x"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("oom@alloc:5-2"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("oom@alloc:18446744073709551616"),
               InvalidArgument);
  // Kind/site mismatch: an OOM cannot happen on a transfer.
  EXPECT_THROW(FaultPlan::parse("oom@h2d:0"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("xfer_fail@kernel:0"), InvalidArgument);
}

TEST(FaultPlan, EmptySpecYieldsEmptyPlan) {
  auto plan = FaultPlan::parse("");
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.to_string(), "");
}

TEST(FaultPlan, ConcurrentCallsCountEveryAttemptExactlyOnce) {
  auto plan = FaultPlan::parse("kernel_fail@kernel:0-999");
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&plan] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        plan.should_fault(FaultSite::Kernel);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(plan.calls(FaultSite::Kernel), kThreads * kCallsPerThread);
  // First 1000 calls fired, regardless of thread interleaving.
  EXPECT_EQ(plan.injected(), 1000u);
}

TEST(ResilienceMode, ParsesAndNames) {
  EXPECT_EQ(parse_resilience_mode("off"), ResilienceMode::Off);
  EXPECT_EQ(parse_resilience_mode("retry"), ResilienceMode::Retry);
  EXPECT_EQ(parse_resilience_mode("fallback"), ResilienceMode::Fallback);
  EXPECT_THROW(parse_resilience_mode("bogus"), InvalidArgument);
  for (auto mode : {ResilienceMode::Off, ResilienceMode::Retry,
                    ResilienceMode::Fallback}) {
    EXPECT_EQ(parse_resilience_mode(std::string(resilience_mode_name(mode))),
              mode);
  }
}

TEST(ResiliencePolicy, ModePredicates) {
  ResiliencePolicy policy;
  EXPECT_FALSE(policy.enabled());
  policy.mode = ResilienceMode::Retry;
  EXPECT_TRUE(policy.enabled());
  EXPECT_FALSE(policy.fallback_enabled());
  policy.mode = ResilienceMode::Fallback;
  EXPECT_TRUE(policy.fallback_enabled());
}

}  // namespace
}  // namespace gpclust::fault
