// Randomized chaos property test (ctest label: chaos). Fifty seeded
// random fault schedules, each run under every resilience mode, with one
// dist sweep on top. The property: every run lands in exactly one of two
// states —
//   (a) it completes, bit-identical to the fault-free SerialShingler
//       partition, or
//   (b) it throws a typed error (DeviceError family or CommError).
// In both states the device arena is empty afterwards. There is never a
// third outcome (wrong result, untyped error, leak, hang). Fallback mode
// must always land in (a).
//
// Schedules are derived from a SplitMix64 stream, so every failure
// reproduces from the iteration's seed; the failing plan's canonical spec
// string is printed on assertion failures.

#include <gtest/gtest.h>

#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "dist/dist_shingling.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace gpclust {
namespace {

graph::CsrGraph chaos_graph() {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 7;
  cfg.min_family_size = 5;
  cfg.max_family_size = 14;
  cfg.num_singletons = 6;
  cfg.seed = 60613;
  return graph::generate_planted_families(cfg).graph;
}

core::ShinglingParams chaos_params() {
  core::ShinglingParams params;
  params.c1 = 6;
  params.c2 = 3;
  return params;
}

/// A random device-side schedule: a handful of point faults plus an
/// occasional persistent burst, spread over the call ranges a run of this
/// size actually exercises.
fault::FaultPlan random_device_plan(u64 seed) {
  util::SplitMix64 rng(seed);
  fault::FaultPlan plan;
  const fault::FaultSite sites[] = {
      fault::FaultSite::Alloc, fault::FaultSite::H2D, fault::FaultSite::D2H,
      fault::FaultSite::Kernel};
  const std::size_t num_faults = 1 + rng.next() % 4;
  for (std::size_t i = 0; i < num_faults; ++i) {
    const auto site = sites[rng.next() % 4];
    const u64 index = rng.next() % 96;
    if (rng.next() % 4 == 0) {
      plan.add_range(site, index, index + rng.next() % 64);
    } else {
      plan.add(site, index);
    }
  }
  if (rng.next() % 5 == 0) {
    // A persistent tail that outlasts any retry budget.
    plan.add_range(fault::FaultSite::Kernel, 16 + rng.next() % 32, 1u << 20);
  }
  return plan;
}

class ChaosSchedule : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSchedule, CompletesIdenticallyOrFailsTyped) {
  const auto g = chaos_graph();
  const auto params = chaos_params();
  auto serial = core::SerialShingler(params).cluster(g);
  serial.normalize();
  const u64 expected = serial.digest();

  const u64 seed = 0xC4A05ULL * 1000003ULL + static_cast<u64>(GetParam());
  util::SplitMix64 knob_rng(seed ^ 0x5eedULL);

  for (const auto mode :
       {fault::ResilienceMode::Off, fault::ResilienceMode::Retry,
        fault::ResilienceMode::Fallback}) {
    auto plan = random_device_plan(seed);
    const std::string spec = plan.to_string();
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    obs::Tracer tracer;
    core::GpClustOptions options;
    // Vary the pipeline shape along with the schedule.
    options.max_batch_elements = 16 + knob_rng.next() % 120;
    options.num_streams = knob_rng.next() % 2 == 0 ? 2 : 1;
    options.tracer = &tracer;
    options.fault_plan = &plan;
    options.resilience.mode = mode;

    const std::string label = "seed=" + std::to_string(seed) + " mode=" +
                              std::string(fault::resilience_mode_name(mode)) +
                              " plan=\"" + spec + "\"";
    bool completed = false;
    try {
      auto result = core::GpClust(ctx, params, options).cluster(g);
      result.normalize();
      // Outcome (a): completion must be bit-identical to serial.
      EXPECT_EQ(result.digest(), expected) << label;
      completed = true;
    } catch (const DeviceError&) {
      // Outcome (b): typed device failure. Legal in Off and Retry only.
      EXPECT_NE(mode, fault::ResilienceMode::Fallback) << label;
    }
    // A different exception type escaping would fail the test harness —
    // that is the "never a third outcome" half of the property.
    if (mode == fault::ResilienceMode::Fallback) {
      EXPECT_TRUE(completed) << label;
    }
    // Arena hygiene on every path.
    EXPECT_EQ(ctx.arena().used(), 0u) << label;
    EXPECT_EQ(ctx.arena().num_allocations(), 0u) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, ChaosSchedule, ::testing::Range(0, 50));

class DistChaosSchedule : public ::testing::TestWithParam<int> {};

TEST_P(DistChaosSchedule, CompletesIdenticallyOrFailsTyped) {
  const auto g = chaos_graph();
  const auto params = chaos_params();
  auto serial = core::SerialShingler(params).cluster(g);
  serial.normalize();
  const u64 expected = serial.digest();

  const u64 seed = 0xD157ULL * 999983ULL + static_cast<u64>(GetParam());
  util::SplitMix64 rng(seed);
  const std::size_t num_ranks = 2 + rng.next() % 3;

  fault::FaultPlan plan;
  const std::size_t num_faults = 1 + rng.next() % 3;
  for (std::size_t i = 0; i < num_faults; ++i) {
    const auto site =
        rng.next() % 2 == 0 ? fault::FaultSite::Send : fault::FaultSite::Recv;
    plan.add(site, rng.next() % 64);
  }
  if (rng.next() % 3 == 0) plan.add_rank_down(rng.next() % num_ranks);

  for (const auto mode :
       {fault::ResilienceMode::Off, fault::ResilienceMode::Retry,
        fault::ResilienceMode::Fallback}) {
    fault::FaultPlan run_plan = plan;
    run_plan.reset_counters();
    fault::ResiliencePolicy policy;
    policy.mode = mode;
    const std::string label = "seed=" + std::to_string(seed) + " ranks=" +
                              std::to_string(num_ranks) + " mode=" +
                              std::string(fault::resilience_mode_name(mode)) +
                              " plan=\"" + plan.to_string() + "\"";
    bool completed = false;
    try {
      auto result = dist::distributed_cluster(g, params, num_ranks, nullptr,
                                              nullptr, &run_plan, policy);
      result.normalize();
      EXPECT_EQ(result.digest(), expected) << label;
      completed = true;
    } catch (const dist::CommError&) {
      // Typed comm failure; never legal in Fallback for these schedules
      // (point faults are retried away, down ranks are reassigned —
      // rank counts here always leave a survivor).
    }
    if (mode == fault::ResilienceMode::Fallback) {
      EXPECT_TRUE(completed) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, DistChaosSchedule, ::testing::Range(0, 10));

}  // namespace
}  // namespace gpclust
