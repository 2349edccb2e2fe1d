#include "dist/dist_shingling.hpp"

#include <gtest/gtest.h>

#include "core/serial_pclust.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"

namespace gpclust::dist {
namespace {

core::ShinglingParams test_params() {
  core::ShinglingParams p;
  p.c1 = 25;
  p.c2 = 12;
  p.seed = 321;
  return p;
}

u64 serial_digest(const graph::CsrGraph& g, const core::ShinglingParams& p) {
  auto c = core::SerialShingler(p).cluster(g);
  c.normalize();
  return c.digest();
}

class RankSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RankSweep, MatchesSerialOnRandomGraph) {
  const auto g = graph::generate_erdos_renyi(300, 0.04, 61);
  const auto p = test_params();
  auto c = distributed_cluster(g, p, GetParam());
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(g, p));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RankSweep,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(DistShingling, MatchesSerialOnPlantedFamilies) {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 12;
  cfg.min_family_size = 8;
  cfg.max_family_size = 30;
  cfg.num_singletons = 20;
  cfg.seed = 77;
  const auto pg = graph::generate_planted_families(cfg);
  const auto p = test_params();
  auto c = distributed_cluster(pg.graph, p, 4);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(pg.graph, p));
  EXPECT_TRUE(c.is_partition());
}

TEST(DistShingling, OverlappingModeMatchesSerial) {
  const auto g = graph::generate_erdos_renyi(150, 0.1, 9);
  auto p = test_params();
  p.mode = core::ReportMode::Overlapping;
  auto c = distributed_cluster(g, p, 3);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(g, p));
}

TEST(DistShingling, MoreRanksThanVertices) {
  const auto g = graph::generate_erdos_renyi(6, 0.9, 5);
  const auto p = test_params();
  auto c = distributed_cluster(g, p, 16);
  c.normalize();
  EXPECT_EQ(c.digest(), serial_digest(g, p));
}

TEST(DistShingling, StatsReportExchanges) {
  const auto g = graph::generate_erdos_renyi(200, 0.08, 3);
  DistStats stats;
  distributed_cluster(g, test_params(), 4, &stats);
  EXPECT_EQ(stats.num_ranks, 4u);
  EXPECT_GT(stats.tuples_exchanged_pass1, 0u);
  EXPECT_GT(stats.tuples_exchanged_pass2, 0u);
}

TEST(DistShingling, ReportsTheEnginesShingleCounters) {
  // Ranks own disjoint shingle ranges, so the summed counters equal the
  // single-node engine's, whatever the rank count.
  const auto g = graph::generate_erdos_renyi(200, 0.08, 3);
  obs::Tracer serial;
  core::SerialShingler(test_params()).cluster(g, &serial);
  ASSERT_GT(serial.counter("g2.shingles"), 0u);
  for (std::size_t ranks : {1u, 3u, 4u}) {
    obs::Tracer tracer;
    distributed_cluster(g, test_params(), ranks, nullptr, &tracer);
    for (const char* counter : {"g1.shingles", "g2.shingles", "shingles"}) {
      EXPECT_EQ(tracer.counter(counter), serial.counter(counter))
          << counter << " ranks=" << ranks;
    }
  }
}

TEST(DistShingling, EmptyGraph) {
  const graph::CsrGraph g;
  const auto c = distributed_cluster(g, test_params(), 3);
  EXPECT_EQ(c.num_clusters(), 0u);
}

TEST(DistShingling, ValidatesParams) {
  const auto g = graph::generate_erdos_renyi(10, 0.5, 1);
  auto p = test_params();
  p.prime = 5;
  EXPECT_THROW(distributed_cluster(g, p, 2), InvalidArgument);
  EXPECT_THROW(distributed_cluster(g, test_params(), 0), InvalidArgument);
}

}  // namespace
}  // namespace gpclust::dist
