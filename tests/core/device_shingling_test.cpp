#include "core/device_shingling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"

namespace gpclust::core {
namespace {

/// Canonical multiset view of tuples for order-independent comparison.
std::vector<std::pair<ShingleId, u32>> canon(const ShingleTuples& t) {
  std::vector<std::pair<ShingleId, u32>> out;
  out.reserve(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    out.emplace_back(t.shingle[i], t.owner[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class DeviceShinglingTest : public ::testing::Test {
 protected:
  device::DeviceContext ctx_{device::DeviceSpec::small_test_device(8 << 20)};
  const HashFamily family_{20, util::kMersenne61, 4, 1};
};

TEST_F(DeviceShinglingTest, MatchesSerialExtraction) {
  const auto g = graph::generate_erdos_renyi(200, 0.05, 3);
  const auto serial =
      extract_shingles_serial(g.offsets(), g.adjacency(), family_, 2);
  auto device_tuples = extract_shingles_device(ctx_, g.offsets(),
                                               g.adjacency(), family_, 2, {});
  EXPECT_EQ(canon(serial), canon(device_tuples));
}

class BatchSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeSweep, TupleSetInvariantUnderBatching) {
  // DESIGN.md invariant 4 at the pass level, across batch sizes that force
  // zero, some, and per-element splits.
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  const HashFamily family(15, util::kMersenne61, 9, 1);
  const auto g = graph::generate_erdos_renyi(100, 0.15, 8);
  const auto serial =
      extract_shingles_serial(g.offsets(), g.adjacency(), family, 2);

  DevicePassOptions options;
  options.max_batch_elements = GetParam();
  DevicePassStats stats;
  auto tuples = extract_shingles_device(ctx, g.offsets(), g.adjacency(),
                                        family, 2, options, nullptr,
                                        "cpu", &stats);
  EXPECT_EQ(canon(serial), canon(tuples));
  EXPECT_GT(stats.num_batches, 0u);
  EXPECT_EQ(stats.num_tuples, serial.size());
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, BatchSizeSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 64, 1000, 1u << 20));

TEST_F(DeviceShinglingTest, AsyncTuplesIdenticalToSync) {
  const auto g = graph::generate_erdos_renyi(150, 0.1, 6);
  DevicePassOptions sync_opt, async_opt;
  async_opt.num_streams = 2;  // single-lane transfer overlap
  auto sync_tuples = extract_shingles_device(ctx_, g.offsets(), g.adjacency(),
                                             family_, 2, sync_opt);
  auto async_tuples = extract_shingles_device(ctx_, g.offsets(), g.adjacency(),
                                              family_, 2, async_opt);
  EXPECT_EQ(canon(sync_tuples), canon(async_tuples));
}

TEST_F(DeviceShinglingTest, StatsReportSplits) {
  const auto g = graph::generate_erdos_renyi(60, 0.5, 2);  // high degree
  DevicePassOptions options;
  options.max_batch_elements = 10;  // far below max degree
  DevicePassStats stats;
  extract_shingles_device(ctx_, g.offsets(), g.adjacency(), family_, 2,
                          options, nullptr, "cpu", &stats);
  EXPECT_GT(stats.num_split_lists, 0u);
  EXPECT_GT(stats.num_batches, 1u);
}

TEST_F(DeviceShinglingTest, DefaultBatchSizeRespectsDeviceMemory) {
  const std::size_t batch = default_batch_elements(ctx_, 2);
  EXPECT_GE(batch, 1u);
  // Must leave room: the per-batch allocations for `batch` elements cannot
  // exceed the arena.
  EXPECT_LT(batch * 12, ctx_.arena().capacity());
}

TEST_F(DeviceShinglingTest, CpuMetricAccumulates) {
  const auto g = graph::generate_erdos_renyi(100, 0.1, 1);
  util::MetricsRegistry reg;
  extract_shingles_device(ctx_, g.offsets(), g.adjacency(), family_, 2, {},
                          &reg, "pass.cpu");
  EXPECT_GT(reg.get("pass.cpu"), 0.0);
}

TEST_F(DeviceShinglingTest, EmptyGraphYieldsNoTuples) {
  const std::vector<u64> offsets = {0};
  auto tuples = extract_shingles_device(ctx_, offsets, {}, family_, 2, {});
  EXPECT_EQ(tuples.size(), 0u);
}

TEST_F(DeviceShinglingTest, ChargesDeviceTime) {
  const auto g = graph::generate_erdos_renyi(100, 0.1, 2);
  ctx_.reset_timeline();
  extract_shingles_device(ctx_, g.offsets(), g.adjacency(), family_, 2, {});
  EXPECT_GT(ctx_.gpu_seconds(), 0.0);
  EXPECT_GT(ctx_.h2d_seconds(), 0.0);
  EXPECT_GT(ctx_.d2h_seconds(), 0.0);
}

// ---------------------------------------------------------------------------
// The fused host emulation of transform -> segmented_sort -> select: same
// tuples, same modeled timeline, same fault sequence as executing the three
// kernels one by one.
// ---------------------------------------------------------------------------

TEST(FusedEmulation, TuplesMatchSerialAcrossSplittingBatchSizes) {
  const auto g = graph::generate_erdos_renyi(60, 0.25, 17);
  const HashFamily family(9, util::kMersenne61, 31, 1);
  for (u32 s : {1u, 3u, 5u}) {
    const auto serial =
        extract_shingles_serial(g.offsets(), g.adjacency(), family, s);
    for (std::size_t batch : {5u, 13u, 100u, 0u}) {
      for (std::size_t streams : {1u, 4u}) {
        device::DeviceContext ctx(
            device::DeviceSpec::small_test_device(8 << 20));
        DevicePassOptions options;
        options.max_batch_elements = batch;
        options.num_streams = streams;
        DevicePassStats stats;
        const auto tuples =
            extract_shingles_device(ctx, g.offsets(), g.adjacency(), family,
                                    s, options, nullptr, "cpu", &stats);
        EXPECT_EQ(canon(serial), canon(tuples))
            << "s=" << s << " batch=" << batch << " streams=" << streams;
        if (batch == 5) {
          EXPECT_GT(stats.num_split_lists, 0u);
        }
        EXPECT_EQ(ctx.arena().used(), 0u);
      }
    }
  }
}

/// Checks the pass's tuples element by element against a serial consume:
/// batch by batch, trial-major within a batch, lists ascending within a
/// trial, each tuple carrying the shingle a serial scan of its whole list
/// hashes (extract_shingles_serial, which is one such batch over every
/// list). The batch partition is read off the owners — a batch's lists
/// form one strictly ascending run per trial — and must cover every list
/// with at least s members exactly once, in ascending order.
void expect_serial_consume_order(const ShingleTuples& tuples,
                                 const graph::CsrGraph& g,
                                 const HashFamily& family, u32 s) {
  const auto serial =
      extract_shingles_serial(g.offsets(), g.adjacency(), family, s);
  const std::size_t c = family.size();
  ASSERT_EQ(tuples.size(), serial.size());
  ASSERT_EQ(serial.size() % c, 0u);
  const std::size_t lists = serial.size() / c;
  std::vector<std::size_t> rank_of(g.num_vertices(), lists);
  for (std::size_t r = 0; r < lists; ++r) rank_of[serial.owner[r]] = r;

  std::size_t pos = 0;
  std::size_t next_rank = 0;
  while (pos < tuples.size()) {
    std::size_t m = 1;
    while (pos + m < tuples.size() &&
           tuples.owner[pos + m] > tuples.owner[pos + m - 1]) {
      ++m;
    }
    if (c > 1) {
      ASSERT_LE(pos + m * c, tuples.size());
    } else {
      m = tuples.size() - pos;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const u32 list = tuples.owner[pos + i];
      ASSERT_EQ(rank_of[list], next_rank + i) << "list " << list;
      for (std::size_t j = 0; j < c; ++j) {
        const std::size_t at = pos + j * m + i;
        ASSERT_EQ(tuples.owner[at], list) << "tuple " << at;
        ASSERT_EQ(tuples.shingle[at], serial.shingle[j * lists + rank_of[list]])
            << "tuple " << at;
      }
    }
    pos += m * c;
    next_rank += m;
  }
  EXPECT_EQ(next_rank, lists);
}

TEST(ParallelConsume, TuplesMatchSerialConsumeElementByElement) {
  // The large graph puts over 4096 segments in a batch (parallel consume);
  // the small one splits lists across many batches (serial overlay merge).
  const auto large = graph::generate_erdos_renyi(6000, 0.0015, 12);
  const auto small = graph::generate_erdos_renyi(300, 0.05, 13);
  const HashFamily family(6, util::kMersenne61, 21, 1);
  const std::pair<const graph::CsrGraph*, std::size_t> runs[] = {
      {&large, 0}, {&large, 40000}, {&large, 997},
      {&small, 3}, {&small, 7},     {&small, 64}};
  for (const auto& [g, batch] : runs) {
    for (u32 s : {1u, 2u, 3u}) {
      SCOPED_TRACE("n=" + std::to_string(g->num_vertices()) +
                   " batch=" + std::to_string(batch) +
                   " s=" + std::to_string(s));
      device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
      DevicePassOptions options;
      options.max_batch_elements = batch;
      DevicePassStats stats;
      const auto tuples =
          extract_shingles_device(ctx, g->offsets(), g->adjacency(), family,
                                  s, options, nullptr, "cpu", &stats);
      expect_serial_consume_order(tuples, *g, family, s);
      if (batch == 3) {
        EXPECT_GT(stats.num_split_lists, 0u);
      }
      EXPECT_EQ(ctx.arena().used(), 0u);
    }
  }
}

TEST(ParallelConsume, FaultedBatchesLeaveNoSlotsBehind) {
  // Faulted batches are discarded with their pre-sized tuple slots; the
  // retried, replanned or CPU-fallback pass must still produce exactly the
  // serial consume order.
  const auto large = graph::generate_erdos_renyi(6000, 0.0015, 12);
  const auto small = graph::generate_erdos_renyi(300, 0.05, 13);
  const HashFamily family(6, util::kMersenne61, 21, 1);
  struct Case {
    const graph::CsrGraph* g;
    std::size_t batch;
    std::string plan;
    fault::ResilienceMode mode;
  };
  using fault::ResilienceMode;
  const Case cases[] = {
      {&large, 40000, "kernel_fail@kernel:0", ResilienceMode::Retry},
      {&large, 40000, "kernel_fail@kernel:17", ResilienceMode::Retry},
      {&large, 40000, "kernel_fail@kernel:20,xfer_fail@d2h:9",
       ResilienceMode::Retry},
      {&large, 40000, "oom@alloc:3", ResilienceMode::Retry},
      {&large, 40000, "oom@alloc:6", ResilienceMode::Fallback},
      {&large, 40000, "oom@alloc:2-999999", ResilienceMode::Fallback},
      {&large, 40000, "kernel_fail@kernel:19-999999", ResilienceMode::Fallback},
      {&small, 7, "kernel_fail@kernel:40", ResilienceMode::Retry},
      {&small, 7, "oom@alloc:12", ResilienceMode::Retry},
      {&small, 7, "kernel_fail@kernel:50-999999", ResilienceMode::Fallback},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.g->num_vertices()) + " plan=" + c.plan);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
    fault::FaultPlan plan = fault::FaultPlan::parse(c.plan);
    ctx.set_fault_plan(&plan);
    DevicePassOptions options;
    options.max_batch_elements = c.batch;
    options.resilience.mode = c.mode;
    DevicePassStats stats;
    const auto tuples =
        extract_shingles_device(ctx, c.g->offsets(), c.g->adjacency(), family,
                                2, options, nullptr, "cpu", &stats);
    expect_serial_consume_order(tuples, *c.g, family, 2);
    EXPECT_GT(stats.num_retries + stats.num_batch_replans +
                  (stats.cpu_fallback ? 1 : 0),
              0u);
    if (c.plan.find("999999") != std::string::npos) {
      EXPECT_TRUE(stats.cpu_fallback);
    }
    EXPECT_EQ(ctx.arena().used(), 0u);
  }
}

graph::CsrGraph pinned_graph() {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 8;
  cfg.min_family_size = 5;
  cfg.max_family_size = 16;
  cfg.num_singletons = 6;
  cfg.seed = 42;
  return graph::generate_planted_families(cfg).graph;
}

struct PinnedTimeline {
  std::size_t streams;
  std::size_t batch;
  const char* plan;
  fault::ResilienceMode mode;
  double makespan, gpu, h2d, d2h, gpu_exposed, h2d_exposed, d2h_exposed;
  std::size_t arena_peak;
  /// Recovery counters summed over both passes; `fallbacks` counts the
  /// passes that finished on the CPU.
  std::size_t retries, replans, drains, fallbacks;
};

TEST(FusedEmulation, ModeledTimelineMatchesPinnedValues) {
  // Recorded from the unfused emulation (one host pass per kernel) on the
  // same graph; the fused scan must leave every modeled number unchanged,
  // with and without faults. The last three rows, one per rung of the
  // fault ladder, were recorded before the shingling and verify passes
  // shared one batch pipeline. The first six were re-recorded when pass 2
  // started running over the distinct G_I lists only; the fault-free ones
  // are derived from direct pass runs by the next test. The last row's
  // faults send pass 2 to the CPU before its first device batch. The
  // exposed columns of the multi-stream rows were re-recorded when
  // SimTimeline::exposed stopped depending on enqueue order (a result copy
  // beside the next trial's kernels is hidden, the kernels exposed).
  using Mode = fault::ResilienceMode;
  const PinnedTimeline pins[] = {
      {1, 64, "", Mode::Off, 0x1.221dcc99a126p-6, 0x1.8718b8889d1b9p-8,
       0x1.0fb3a736e61b5p-9, 0x1.3cc253213a36bp-7, 0x1.8718b8889d1d4p-8,
       0x1.0fb3a736e61aep-9, 0x1.3cc253213a36bp-7, 1736, 0, 0, 0, 0},
      {4, 64, "", Mode::Off, 0x1.42b42f9cfba31p-7, 0x1.8718b8889d1b9p-8,
       0x1.0fb3a736e61b5p-9, 0x1.3cc253213a36bp-7, 0x1.8718b8889d1ccp-8,
       0x1.fb4d12d849db9p-12, 0x1.bd35ab07ab175p-9, 3392, 0, 0, 0, 0},
      {1, 0, "", Mode::Off, 0x1.401dfd4108decp-9, 0x1.e50a305a90c53p-11,
       0x1.1bbea2679e74dp-12, 0x1.46c739bae1bddp-10, 0x1.e50a305a90c54p-11,
       0x1.1bbea2679e74dp-12, 0x1.46c739bae1bdap-10, 13652, 0, 0, 0, 0},
      {2, 64, "kernel_fail@kernel:5,xfer_fail@d2h:7", Mode::Retry,
       0x1.7753defa4be08p-7, 0x1.ad0b66658fa5p-8, 0x1.2ad6c345ba749p-9,
       0x1.48a1af67b71dbp-7, 0x1.ad0b66658fa7ap-8, 0x1.2ad6c345ba745p-9,
       0x1.5861ebd855be6p-9, 1736, 2, 0, 0, 0},
      // OOM replan: the batch at the allocation fault is halved.
      {1, 64, "oom@alloc:7", Mode::Retry, 0x1.d1d3316adc148p-6,
       0x1.399577f6dc977p-7, 0x1.a087f5575a85p-9, 0x1.00f776c4827aep-6,
       0x1.399577f6dc8fbp-7, 0x1.a087f5575a86cp-9, 0x1.00f776c4827bdp-6, 1736,
       0, 1, 0, 0},
      // Drain: lane 1's allocation faults while lane 0 holds its batch, so
      // the pipeline drains and retries at the same size.
      {4, 64, "oom@alloc:7", Mode::Retry, 0x1.42b42f9cfba31p-7,
       0x1.8718b8889d1b9p-8, 0x1.1d42860c7401ep-9, 0x1.3cc253213a36bp-7,
       0x1.8718b8889d1ccp-8, 0x1.11048a2862764p-11, 0x1.b85e2ad89bb53p-9, 3392,
       0, 0, 1, 0},
      // Persistent kernel faults: both passes finish on the CPU.
      {2, 64, "kernel_fail@kernel:30-99999", Mode::Fallback,
       0x1.428205a937469p-8, 0x1.9920cdd5e148ap-9, 0x1.b46019703e818p-10,
       0x1.0f5f18944b7bfp-11, 0x1.9920cdd5e148ap-9, 0x1.b46019703e82p-10,
       0x1.1b330c46e0386p-13, 1736, 12, 0, 0, 2},
  };
  const auto g = pinned_graph();
  ShinglingParams params;
  params.c1 = 12;
  params.c2 = 6;
  for (const PinnedTimeline& pin : pins) {
    SCOPED_TRACE(std::string("streams=") + std::to_string(pin.streams) +
                 " batch=" + std::to_string(pin.batch) + " plan=" + pin.plan);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    fault::FaultPlan plan = fault::FaultPlan::parse(pin.plan);
    GpClustOptions options;
    options.max_batch_elements = pin.batch;
    options.num_streams = pin.streams;
    if (!plan.empty()) options.fault_plan = &plan;
    options.resilience.mode = pin.mode;
    GpClustReport report;
    GpClust(ctx, params, options).cluster(g, &report);
    const auto sum = [&](std::size_t DevicePassStats::*field) {
      return report.pass1.*field + report.pass2.*field;
    };
    EXPECT_DOUBLE_EQ(report.device_makespan, pin.makespan);
    EXPECT_DOUBLE_EQ(report.gpu_seconds, pin.gpu);
    EXPECT_DOUBLE_EQ(report.h2d_seconds, pin.h2d);
    EXPECT_DOUBLE_EQ(report.d2h_seconds, pin.d2h);
    EXPECT_DOUBLE_EQ(report.gpu_exposed_seconds, pin.gpu_exposed);
    EXPECT_DOUBLE_EQ(report.h2d_exposed_seconds, pin.h2d_exposed);
    EXPECT_DOUBLE_EQ(report.d2h_exposed_seconds, pin.d2h_exposed);
    EXPECT_EQ(ctx.arena().peak(), pin.arena_peak);
    EXPECT_EQ(sum(&DevicePassStats::num_retries), pin.retries);
    EXPECT_EQ(sum(&DevicePassStats::num_batch_replans), pin.replans);
    EXPECT_EQ(sum(&DevicePassStats::num_pipeline_drains), pin.drains);
    EXPECT_EQ(std::size_t{report.pass1.cpu_fallback} +
                  std::size_t{report.pass2.cpu_fallback},
              pin.fallbacks);
    EXPECT_EQ(ctx.arena().used(), 0u);
  }
}

TEST(FusedEmulation, Pass2ChargesEqualADirectPassOverTheDistinctLists) {
  // GpClust's modeled device time is pass 1 over G plus pass 2 over the
  // distinct G_I lists of at least s2 members: the same two passes run
  // directly on a fresh device give every number of a fault-free pinned
  // row above.
  const auto g = pinned_graph();
  ShinglingParams params;
  params.c1 = 12;
  params.c2 = 6;
  for (const auto& [streams, batch] :
       {std::pair<std::size_t, std::size_t>{1, 64}, {4, 64}, {1, 0}}) {
    SCOPED_TRACE("streams=" + std::to_string(streams) +
                 " batch=" + std::to_string(batch));
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    GpClustOptions options;
    options.max_batch_elements = batch;
    options.num_streams = streams;
    GpClustReport report;
    GpClust(ctx, params, options).cluster(g, &report);

    device::DeviceContext direct(
        device::DeviceSpec::small_test_device(4 << 20));
    DevicePassOptions pass;
    pass.max_batch_elements = batch;
    pass.num_streams = streams;
    const BipartiteShingleGraph gi = aggregate_tuples(
        extract_shingles_device(
            direct, g.offsets(), g.adjacency(),
            HashFamily(params.c1, params.prime, params.seed, 1), params.s1,
            pass),
        params.s2);
    const DistinctLists distinct = distinct_lists(gi);
    ASSERT_LT(distinct.lists.num_left(), gi.num_left());
    DevicePassStats stats2;
    const ShingleTuples tuples2 = extract_shingles_device(
        direct, distinct.lists.offsets, distinct.lists.members,
        HashFamily(params.c2, params.prime, params.seed, 2), params.s2, pass,
        nullptr, "cpu", &stats2);

    EXPECT_EQ(report.pass2.num_tuples, tuples2.size());
    EXPECT_EQ(report.pass2.num_batches, stats2.num_batches);
    EXPECT_DOUBLE_EQ(report.device_makespan, direct.makespan());
    EXPECT_DOUBLE_EQ(report.gpu_seconds, direct.gpu_seconds());
    EXPECT_DOUBLE_EQ(report.h2d_seconds, direct.h2d_seconds());
    EXPECT_DOUBLE_EQ(report.d2h_seconds, direct.d2h_seconds());
    EXPECT_DOUBLE_EQ(report.gpu_exposed_seconds, direct.gpu_exposed_seconds());
    EXPECT_DOUBLE_EQ(report.h2d_exposed_seconds, direct.h2d_exposed_seconds());
    EXPECT_DOUBLE_EQ(report.d2h_exposed_seconds, direct.d2h_exposed_seconds());
    EXPECT_EQ(ctx.arena().peak(), direct.arena().peak());
  }
}

TEST(FusedEmulation, KernelFaultsHitTheSamePrimitiveAtTheSameIndex) {
  // Three batches x three trials x (transform, segmented_sort, tabulate):
  // kernel call k must fault in the k-th primitive of that cycle, with the
  // modeled timeline at the fault pinned from the unfused emulation.
  const auto g = pinned_graph();
  const HashFamily family(3, util::kMersenne61, 4, 1);
  const char* const cycle[] = {"transform", "segmented_sort", "tabulate"};
  const std::pair<int, double> pinned_at_fault[] = {
      {0, 0x1.da1fc699d7d8p-14},
      {13, 0x1.425fcbed7ec91p-11},
      {26, 0x1.20ff7efbb3953p-10}};
  for (int k = 0; k <= 27; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    fault::FaultPlan plan =
        fault::FaultPlan::parse("kernel_fail@kernel:" + std::to_string(k));
    ctx.set_fault_plan(&plan);
    DevicePassOptions options;
    options.max_batch_elements = 256;
    DevicePassStats stats;
    std::string fault;
    try {
      extract_shingles_device(ctx, g.offsets(), g.adjacency(), family, 2,
                              options, nullptr, "cpu", &stats);
    } catch (const KernelError& e) {
      fault = e.what();
    }
    if (k == 27) {
      EXPECT_EQ(fault, "");  // the pass launches exactly 27 kernels
      EXPECT_EQ(stats.num_batches, 3u);
      EXPECT_EQ(plan.calls(fault::FaultSite::Kernel), 27u);
      EXPECT_DOUBLE_EQ(ctx.makespan(), 0x1.31c3c76a8d3cbp-10);
      continue;
    }
    EXPECT_EQ(fault, std::string("injected kernel fault (fault plan, ") +
                         cycle[k % 3] + ")");
    EXPECT_EQ(plan.calls(fault::FaultSite::Kernel), static_cast<u64>(k) + 1);
    for (const auto& [at, makespan] : pinned_at_fault) {
      if (at == k) {
        EXPECT_DOUBLE_EQ(ctx.makespan(), makespan);
      }
    }
    EXPECT_EQ(ctx.arena().used(), 0u);
  }
}

}  // namespace
}  // namespace gpclust::core
