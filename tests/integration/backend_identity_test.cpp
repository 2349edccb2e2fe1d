// Cross-backend bit-identity (CLAUDE.md invariant): SerialShingler,
// GpClust under every batch size and stream count, and
// dist::distributed_cluster at several rank counts all produce the same
// partition digest for identical ShinglingParams. Complements the
// parameter sweep in core/equivalence_sweep_test.cpp, which varies params
// on one device configuration; here one param set meets every backend
// configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "dist/dist_shingling.hpp"
#include "graph/generators.hpp"

namespace gpclust {
namespace {

// (graph seed, hash seed, c1, report mode)
using IdentityParam = std::tuple<u64, u64, u32, core::ReportMode>;

graph::CsrGraph identity_test_graph(u64 graph_seed) {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 10;
  cfg.min_family_size = 5;
  cfg.max_family_size = 24;
  cfg.num_singletons = 12;
  cfg.seed = graph_seed;
  return graph::generate_planted_families(cfg).graph;
}

core::ShinglingParams identity_test_params(const IdentityParam& p) {
  core::ShinglingParams params;
  params.s1 = params.s2 = 2;
  params.c1 = std::get<2>(p);  // small trial counts keep batch=1 fast
  params.c2 = std::max<u32>(1, std::get<2>(p) / 2);
  params.seed = std::get<1>(p);
  params.mode = std::get<3>(p);
  return params;
}

u64 serial_digest(const graph::CsrGraph& g,
                  const core::ShinglingParams& params) {
  auto serial = core::SerialShingler(params).cluster(g);
  serial.normalize();
  return serial.digest();
}

// g<graph seed>_h<hash seed>_c<c1>_<mode>, e.g. g4242_h777_c10_Overlapping:
// short enough that ctest ids stay distinct when cut at 100 characters.
std::string identity_name(const ::testing::TestParamInfo<IdentityParam>& info) {
  const auto& [graph_seed, hash_seed, c1, mode] = info.param;
  return "g" + std::to_string(graph_seed) + "_h" + std::to_string(hash_seed) +
         "_c" + std::to_string(c1) +
         (mode == core::ReportMode::Partition ? "_Partition" : "_Overlapping");
}

class BackendIdentity : public ::testing::TestWithParam<IdentityParam> {};

TEST_P(BackendIdentity, DeviceConfigurationsMatchSerial) {
  const auto g = identity_test_graph(std::get<0>(GetParam()));
  const auto params = identity_test_params(GetParam());
  const auto expected = serial_digest(g, params);

  struct DeviceConfig {
    std::size_t max_batch_elements;  // 0 = whole graph in one batch
    std::size_t num_streams = 1;     // 1 == the sync engine
  };
  const DeviceConfig configs[] = {
      {1},      // one element per batch: every list splits
      {1, 2},
      {97},     // prime-sized batches force odd splits
      {97, 2},
      {0},      // memory-derived batch size (all at once here)
      {0, 2},
      // DESIGN.md §8 pipeline shapes: multi-lane schedules must not move
      // a single vertex.
      {1, 4},   // every list splits across lanes
      {97, 4},
      {97, 8},
      {97, 3},  // odd stream count: shared last lane
      {0, 8},   // memory-derived batch size, lane-split
  };

  for (const DeviceConfig& cfg : configs) {
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    core::GpClustOptions options;
    options.max_batch_elements = cfg.max_batch_elements;
    options.num_streams = cfg.num_streams;
    auto result = core::GpClust(ctx, params, options).cluster(g);
    result.normalize();
    EXPECT_EQ(result.digest(), expected)
        << "batch=" << cfg.max_batch_elements
        << " streams=" << cfg.num_streams;
  }
}

TEST_P(BackendIdentity, DistributedRankCountsMatchSerial) {
  const auto g = identity_test_graph(std::get<0>(GetParam()));
  const auto params = identity_test_params(GetParam());
  const auto expected = serial_digest(g, params);

  for (std::size_t ranks : {1u, 2u, 4u}) {
    auto result = dist::distributed_cluster(g, params, ranks);
    result.normalize();
    EXPECT_EQ(result.digest(), expected) << "ranks=" << ranks;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndParams, BackendIdentity,
    ::testing::Combine(::testing::Values<u64>(20130520, 4242),  // graph seed
                       ::testing::Values<u64>(777, 31337),      // hash seed
                       ::testing::Values<u32>(10, 7),           // c1
                       ::testing::Values(core::ReportMode::Partition,
                                         core::ReportMode::Overlapping)),
    identity_name);

}  // namespace
}  // namespace gpclust
