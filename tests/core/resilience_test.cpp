// ResiliencePolicy behavior of the device pipeline under injected faults:
// adaptive batch backoff on OOM, bounded retries charged to the modeled
// timeline, graceful CPU degradation, and the invariant that every
// recovery path produces a partition bit-identical to SerialShingler with
// an empty arena afterwards.

#include <gtest/gtest.h>

#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"

namespace gpclust {
namespace {

graph::CsrGraph resilience_test_graph() {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 8;
  cfg.min_family_size = 5;
  cfg.max_family_size = 16;
  cfg.num_singletons = 6;
  cfg.seed = 314;
  return graph::generate_planted_families(cfg).graph;
}

core::ShinglingParams resilience_test_params() {
  core::ShinglingParams params;
  params.c1 = 8;
  params.c2 = 4;
  return params;
}

u64 serial_digest(const graph::CsrGraph& g,
                  const core::ShinglingParams& params) {
  auto serial = core::SerialShingler(params).cluster(g);
  serial.normalize();
  return serial.digest();
}

/// Runs GpClust under `plan` and returns the normalized digest, asserting
/// arena hygiene on the way out.
u64 run_with_plan(const graph::CsrGraph& g,
                  const core::ShinglingParams& params, fault::FaultPlan& plan,
                  fault::ResilienceMode mode, obs::Tracer& tracer,
                  core::GpClustReport* report = nullptr,
                  std::size_t max_batch_elements = 73) {
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  core::GpClustOptions options;
  options.max_batch_elements = max_batch_elements;
  options.tracer = &tracer;
  options.fault_plan = &plan;
  options.resilience.mode = mode;
  auto result = core::GpClust(ctx, params, options).cluster(g, report);
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);
  EXPECT_EQ(ctx.fault_plan(), nullptr);  // scoped binding undone
  result.normalize();
  return result.digest();
}

TEST(Resilience, OffModePropagatesInjectedFaults) {
  const auto g = resilience_test_graph();
  const auto params = resilience_test_params();

  for (const char* spec : {"oom@alloc:2", "xfer_fail@h2d:1",
                           "kernel_fail@kernel:4", "xfer_fail@d2h:0"}) {
    auto plan = fault::FaultPlan::parse(spec);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    core::GpClustOptions options;
    options.max_batch_elements = 73;
    options.fault_plan = &plan;
    core::GpClust gp(ctx, params, options);
    EXPECT_THROW(gp.cluster(g), DeviceError) << spec;
    EXPECT_EQ(ctx.arena().used(), 0u) << spec;
    EXPECT_GE(plan.injected(), 1u) << spec;
  }
}

TEST(Resilience, InjectedOomHalvesBatchesAndStaysIdentical) {
  const auto g = resilience_test_graph();
  const auto params = resilience_test_params();
  const u64 expected = serial_digest(g, params);

  auto plan = fault::FaultPlan::parse("oom@alloc:2");
  obs::Tracer tracer;
  core::GpClustReport report;
  EXPECT_EQ(run_with_plan(g, params, plan, fault::ResilienceMode::Retry,
                          tracer, &report),
            expected);
  EXPECT_EQ(plan.injected(), 1u);
  // The OOM surfaced as a batch replan (the acceptance-criterion counter),
  // not as a retry or a fallback.
  EXPECT_GE(tracer.counter("batch_replans"), 1u);
  EXPECT_GE(report.pass1.num_batch_replans + report.pass2.num_batch_replans,
            1u);
  EXPECT_EQ(tracer.counter("cpu_fallbacks"), 0u);
  EXPECT_FALSE(report.pass1.cpu_fallback);
  EXPECT_FALSE(report.pass2.cpu_fallback);
}

TEST(Resilience, TransientFaultRetriesAndChargesModeledTime) {
  const auto g = resilience_test_graph();
  const auto params = resilience_test_params();
  const u64 expected = serial_digest(g, params);

  // Fault-free baseline for the modeled device time.
  obs::Tracer clean_tracer;
  auto clean_plan = fault::FaultPlan::parse("");
  core::GpClustReport clean_report;
  ASSERT_EQ(run_with_plan(g, params, clean_plan, fault::ResilienceMode::Off,
                          clean_tracer, &clean_report),
            expected);

  auto plan = fault::FaultPlan::parse("xfer_fail@h2d:1,kernel_fail@kernel:6");
  obs::Tracer tracer;
  core::GpClustReport report;
  EXPECT_EQ(run_with_plan(g, params, plan, fault::ResilienceMode::Retry,
                          tracer, &report),
            expected);
  EXPECT_EQ(plan.injected(), 2u);
  EXPECT_EQ(tracer.counter("retries"), 2u);
  EXPECT_EQ(report.pass1.num_retries + report.pass2.num_retries, 2u);
  EXPECT_EQ(tracer.counter("cpu_fallbacks"), 0u);

  // Retry backoff is charged to the modeled timeline and attributed to a
  // ".retry" phase span (EXPERIMENTS.md: retry cost is modeled device
  // time, never host time).
  EXPECT_GT(tracer.modeled_total("pass1.retry").value, 0.0);
  EXPECT_GT(report.gpu_seconds, clean_report.gpu_seconds);
  bool found_retry_span = false;
  for (const auto& e : tracer.events()) {
    if (e.name == "pass1.retry.kernel") {
      EXPECT_EQ(e.domain, obs::Domain::DeviceModeled);
      found_retry_span = true;
    }
  }
  EXPECT_TRUE(found_retry_span);
}

TEST(Resilience, RetryModeThrowsTypedErrorWhenExhausted) {
  const auto g = resilience_test_graph();
  const auto params = resilience_test_params();

  // Persistent transfer faults outlast max_retries in Retry mode.
  auto plan = fault::FaultPlan::parse("xfer_fail@h2d:0-9999");
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  core::GpClustOptions options;
  options.max_batch_elements = 73;
  options.fault_plan = &plan;
  options.resilience.mode = fault::ResilienceMode::Retry;
  core::GpClust gp(ctx, params, options);
  EXPECT_THROW(gp.cluster(g), TransferError);
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);
}

TEST(Resilience, FallbackSurvivesPersistentKernelFaults) {
  const auto g = resilience_test_graph();
  const auto params = resilience_test_params();
  const u64 expected = serial_digest(g, params);

  auto plan = fault::FaultPlan::parse("kernel_fail@kernel:0-999999");
  obs::Tracer tracer;
  core::GpClustReport report;
  EXPECT_EQ(run_with_plan(g, params, plan, fault::ResilienceMode::Fallback,
                          tracer, &report),
            expected);
  // Both passes degraded to the CPU (aggregation is CPU-side).
  EXPECT_GE(tracer.counter("cpu_fallbacks"), 2u);
  EXPECT_TRUE(report.pass1.cpu_fallback);
  EXPECT_TRUE(report.pass2.cpu_fallback);
  EXPECT_GT(tracer.counter("retries"), 0u);
}

TEST(Resilience, MidStreamFaultAfterCommittedBatchesStaysIdentical) {
  const auto g = resilience_test_graph();
  const auto params = resilience_test_params();
  const u64 expected = serial_digest(g, params);

  // A late persistent kernel fault: several batches commit on the device,
  // then the rest of the pass must finish on the CPU. Split-list state in
  // flight at the failure point must survive into the fallback.
  auto plan = fault::FaultPlan::parse("kernel_fail@kernel:40-999999");
  obs::Tracer tracer;
  EXPECT_EQ(run_with_plan(g, params, plan, fault::ResilienceMode::Fallback,
                          tracer, nullptr, /*max_batch_elements=*/7),
            expected);
  EXPECT_GE(tracer.counter("cpu_fallbacks"), 1u);
  EXPECT_GT(tracer.counter("batches"), 0u);
}

TEST(Resilience, RealOomOnTinyArenaFallsBackToCpu) {
  const auto g = resilience_test_graph();
  const auto params = resilience_test_params();
  const u64 expected = serial_digest(g, params);

  // 32 bytes of device memory: even a one-element batch cannot fit, so
  // the pass hits genuine (not injected) OOM at the batch-size floor and
  // the whole input is processed on the CPU.
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(32));
  obs::Tracer tracer;
  core::GpClustOptions options;
  options.tracer = &tracer;
  options.resilience.mode = fault::ResilienceMode::Fallback;
  auto result = core::GpClust(ctx, params, options).cluster(g);
  result.normalize();
  EXPECT_EQ(result.digest(), expected);
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_GE(tracer.counter("cpu_fallbacks"), 2u);

  // The same configuration without resilience is a hard error.
  device::DeviceContext strict(device::DeviceSpec::small_test_device(32));
  core::GpClustOptions off;
  EXPECT_THROW(core::GpClust(strict, params, off).cluster(g), DeviceError);
  EXPECT_EQ(strict.arena().used(), 0u);
}

}  // namespace
}  // namespace gpclust
