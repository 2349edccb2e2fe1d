#include "core/gpclust.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "graph/generators.hpp"
#include "graph/graph_io.hpp"

namespace gpclust::core {
namespace {

ShinglingParams test_params() {
  ShinglingParams p;
  p.s1 = 2;
  p.c1 = 25;
  p.s2 = 2;
  p.c2 = 12;
  p.seed = 777;
  return p;
}

u64 serial_digest(const graph::CsrGraph& g, const ShinglingParams& p) {
  auto c = SerialShingler(p).cluster(g);
  c.normalize();
  return c.digest();
}

class GpClustTest : public ::testing::Test {
 protected:
  device::DeviceContext ctx_{device::DeviceSpec::small_test_device(32 << 20)};
};

TEST_F(GpClustTest, MatchesSerialOnRandomGraph) {
  const auto g = graph::generate_erdos_renyi(400, 0.04, 31);
  GpClust gp(ctx_, test_params());
  auto c = gp.cluster(g);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(g, test_params()));
}

TEST_F(GpClustTest, MatchesSerialOnPlantedFamilies) {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 15;
  cfg.min_family_size = 8;
  cfg.max_family_size = 40;
  cfg.seed = 6;
  cfg.num_singletons = 25;
  const auto pg = graph::generate_planted_families(cfg);
  GpClust gp(ctx_, test_params());
  auto c = gp.cluster(pg.graph);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(pg.graph, test_params()));
  EXPECT_TRUE(c.is_partition());
}

TEST_F(GpClustTest, BatchSizeDoesNotChangeResult) {
  // Invariant 4 of DESIGN.md: batching (including splits) is transparent.
  const auto g = graph::generate_erdos_renyi(200, 0.08, 12);
  const u64 reference = serial_digest(g, test_params());
  for (std::size_t batch : {7u, 33u, 100u, 1000u, 100000u}) {
    GpClustOptions opt;
    opt.max_batch_elements = batch;
    GpClust gp(ctx_, test_params(), opt);
    auto c = gp.cluster(g);
    c.normalize();
    EXPECT_EQ(c.digest(), reference) << "batch size " << batch;
  }
}

TEST_F(GpClustTest, TinyBatchesForceSplitsAndStillMatch) {
  // Batch capacity below the max degree guarantees split adjacency lists.
  const auto g = graph::generate_erdos_renyi(120, 0.3, 3);
  GpClustOptions opt;
  opt.max_batch_elements = 5;
  GpClust gp(ctx_, test_params(), opt);
  GpClustReport report;
  auto c = gp.cluster(g, &report);
  EXPECT_GT(report.pass1.num_split_lists, 0u);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(g, test_params()));
}

TEST_F(GpClustTest, AsyncProducesIdenticalClustersWithSmallerMakespan) {
  const auto g = graph::generate_erdos_renyi(300, 0.1, 9);

  GpClustOptions sync_opt;
  GpClust sync_gp(ctx_, test_params(), sync_opt);
  GpClustReport sync_report;
  auto sync_c = sync_gp.cluster(g, &sync_report);
  sync_c.normalize();

  GpClustOptions async_opt;
  async_opt.num_streams = 2;  // single-lane transfer overlap
  GpClust async_gp(ctx_, test_params(), async_opt);
  GpClustReport async_report;
  auto async_c = async_gp.cluster(g, &async_report);
  async_c.normalize();

  EXPECT_EQ(sync_c.digest(), async_c.digest());
  // Same work, overlapped: busy totals equal, makespan strictly smaller.
  EXPECT_NEAR(sync_report.gpu_seconds, async_report.gpu_seconds, 1e-9);
  EXPECT_NEAR(sync_report.d2h_seconds, async_report.d2h_seconds, 1e-9);
  EXPECT_LT(async_report.device_makespan, sync_report.device_makespan);
  // Sync mode: one stream, makespan == sum of components.
  EXPECT_NEAR(sync_report.device_makespan,
              sync_report.gpu_seconds + sync_report.h2d_seconds +
                  sync_report.d2h_seconds,
              1e-9);
}

TEST_F(GpClustTest, ReportBreakdownIsPopulated) {
  const auto g = graph::generate_erdos_renyi(150, 0.1, 2);
  GpClust gp(ctx_, test_params());
  GpClustReport report;
  gp.cluster(g, &report);
  EXPECT_GT(report.cpu_seconds, 0.0);
  EXPECT_GT(report.gpu_seconds, 0.0);
  EXPECT_GT(report.h2d_seconds, 0.0);
  EXPECT_GT(report.d2h_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.disk_seconds, 0.0);
  EXPECT_GT(report.pass1.num_batches, 0u);
  EXPECT_GT(report.pass2.num_batches, 0u);
  EXPECT_GT(report.pass1.num_tuples, 0u);
  EXPECT_GT(report.total_seconds(), report.cpu_seconds);
}

TEST_F(GpClustTest, DeviceMemoryFullyReleasedAfterRun) {
  const auto g = graph::generate_erdos_renyi(200, 0.05, 7);
  GpClust gp(ctx_, test_params());
  gp.cluster(g);
  EXPECT_EQ(ctx_.arena().used(), 0u);
  EXPECT_EQ(ctx_.arena().num_allocations(), 0u);
  EXPECT_GT(ctx_.arena().peak(), 0u);
}

TEST_F(GpClustTest, GraphLargerThanDeviceMemoryStillClusters) {
  // The whole point of batching: a graph whose adjacency data exceeds
  // device memory is processed batch by batch.
  device::DeviceContext tiny(device::DeviceSpec::small_test_device(1 << 12));
  const auto g = graph::generate_erdos_renyi(300, 0.2, 15);
  ASSERT_GT(g.num_adjacency_entries() * sizeof(VertexId),
            tiny.arena().capacity());
  GpClust gp(tiny, test_params());
  GpClustReport report;
  auto c = gp.cluster(g, &report);
  EXPECT_GT(report.pass1.num_batches, 1u);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(g, test_params()));
}

TEST_F(GpClustTest, EmptyGraph) {
  const graph::CsrGraph g;
  GpClust gp(ctx_, test_params());
  const auto c = gp.cluster(g);
  EXPECT_EQ(c.num_clusters(), 0u);
}

TEST_F(GpClustTest, ClusterFileMeasuresDiskTime) {
  const auto g = graph::generate_erdos_renyi(100, 0.1, 4);
  const auto path =
      (std::filesystem::temp_directory_path() / "gpclust_disk_test.bin")
          .string();
  graph::write_csr_binary(g, path);
  GpClust gp(ctx_, test_params());
  GpClustReport report;
  auto c = gp.cluster_file(path, &report);
  EXPECT_GT(report.disk_seconds, 0.0);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(g, test_params()));
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace gpclust::core
