#include "core/serial_pclust.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/shingle.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"

namespace gpclust::core {
namespace {

ShinglingParams small_params() {
  ShinglingParams p;
  p.s1 = 2;
  p.c1 = 30;
  p.s2 = 2;
  p.c2 = 15;
  p.seed = 99;
  return p;
}

TEST(ExtractShinglesSerial, OneTuplePerEligibleListPerTrial) {
  const std::vector<u64> offsets = {0, 3, 4, 8};  // lengths 3, 1, 4
  const std::vector<u32> members = {1, 2, 3, 9, 4, 5, 6, 7};
  const HashFamily fam(10, util::kMersenne61, 1, 1);
  const auto tuples = extract_shingles_serial(offsets, members, fam, 2);
  // Lists 0 and 2 are eligible (len >= 2), 10 trials each.
  EXPECT_EQ(tuples.size(), 20u);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_TRUE(tuples.owner[i] == 0 || tuples.owner[i] == 2);
    EXPECT_NE(tuples.shingle[i], kNoValue);
  }
}

TEST(ExtractShinglesSerial, IdenticalListsShareAllShingles) {
  // Two vertices with identical neighborhoods must generate identical
  // shingles in every trial.
  const std::vector<u64> offsets = {0, 4, 8};
  const std::vector<u32> members = {10, 20, 30, 40, 10, 20, 30, 40};
  const HashFamily fam(25, util::kMersenne61, 5, 1);
  const auto tuples = extract_shingles_serial(offsets, members, fam, 2);
  ASSERT_EQ(tuples.size(), 50u);
  // Group by owner preserving order: trials are emitted in order.
  std::vector<ShingleId> a, b;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    (tuples.owner[i] == 0 ? a : b).push_back(tuples.shingle[i]);
  }
  EXPECT_EQ(a, b);
}

TEST(ExtractShinglesSerial, DisjointNeighborhoodsShareNothing) {
  const std::vector<u64> offsets = {0, 3, 6};
  const std::vector<u32> members = {1, 2, 3, 100, 200, 300};
  const HashFamily fam(40, util::kMersenne61, 5, 1);
  const auto tuples = extract_shingles_serial(offsets, members, fam, 2);
  std::set<ShingleId> a, b;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    (tuples.owner[i] == 0 ? a : b).insert(tuples.shingle[i]);
  }
  for (ShingleId s : a) EXPECT_EQ(b.count(s), 0u);
}

TEST(SerialShingler, RecoversPlantedCliques) {
  // Three disjoint 12-cliques must come back as three clusters.
  graph::EdgeList e;
  for (VertexId base : {0u, 12u, 24u}) {
    for (VertexId i = 0; i < 12; ++i) {
      for (VertexId j = i + 1; j < 12; ++j) e.add(base + i, base + j);
    }
  }
  const auto g = graph::CsrGraph::from_edge_list(std::move(e));
  const SerialShingler shingler(small_params());
  auto c = shingler.cluster(g);
  EXPECT_TRUE(c.is_partition());
  const auto big = c.filtered(2);
  ASSERT_EQ(big.num_clusters(), 3u);
  for (const auto& cluster : big.clusters()) EXPECT_EQ(cluster.size(), 12u);
  // Membership must match the planted cliques.
  const auto labels = c.labels();
  for (VertexId base : {0u, 12u, 24u}) {
    for (VertexId i = 1; i < 12; ++i) {
      EXPECT_EQ(labels[base], labels[base + i]);
    }
  }
  EXPECT_NE(labels[0], labels[12]);
  EXPECT_NE(labels[12], labels[24]);
}

TEST(SerialShingler, RecoversNoisyPlantedFamilies) {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 8;
  cfg.min_family_size = 15;
  cfg.max_family_size = 30;
  cfg.intra_family_edge_prob = 0.9;
  cfg.intra_superfamily_edge_prob = 0.0;
  cfg.noise_edges_per_vertex = 0.0;
  cfg.seed = 4;
  const auto pg = graph::generate_planted_families(cfg);

  ShinglingParams p = small_params();
  p.c1 = 80;
  p.c2 = 40;
  const SerialShingler shingler(p);
  auto c = shingler.cluster(pg.graph);
  const auto labels = c.labels();

  // Most same-family pairs should be co-clustered (high sensitivity on
  // dense planted families), and no cross-family merging should occur in
  // a noise-free graph... cross-family merges are possible only through
  // shared shingles, which require shared neighbors; disjoint families
  // share none.
  std::size_t same_family_pairs = 0, co_clustered = 0;
  for (std::size_t u = 0; u < pg.graph.num_vertices(); ++u) {
    for (std::size_t v = u + 1; v < pg.graph.num_vertices(); ++v) {
      if (pg.family[u] != pg.family[v]) {
        EXPECT_NE(labels[u], labels[v]) << "cross-family merge";
      } else {
        ++same_family_pairs;
        if (labels[u] == labels[v]) ++co_clustered;
      }
    }
  }
  EXPECT_GT(static_cast<double>(co_clustered) /
                static_cast<double>(same_family_pairs),
            0.8);
}

TEST(SerialShingler, DeterministicAcrossRuns) {
  const auto g = graph::generate_erdos_renyi(300, 0.05, 8);
  const SerialShingler shingler(small_params());
  auto a = shingler.cluster(g);
  auto b = shingler.cluster(g);
  a.normalize();
  b.normalize();
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(SerialShingler, SeedChangesClustering) {
  const auto g = graph::generate_erdos_renyi(300, 0.03, 8);
  ShinglingParams p1 = small_params(), p2 = small_params();
  p2.seed = 12345;
  p1.c1 = p2.c1 = 5;  // few trials so randomness shows
  auto a = SerialShingler(p1).cluster(g);
  auto b = SerialShingler(p2).cluster(g);
  a.normalize();
  b.normalize();
  EXPECT_NE(a.digest(), b.digest());
}

TEST(SerialShingler, MetricsShowShinglingDominates) {
  // The paper's profiling claim (§III-C): the two shingling levels take
  // ~80% of serial runtime, aggregation the rest. Stated in deterministic
  // work counts, so host load cannot move it: the shingling passes' hash
  // evaluations (each of c trials hashes every member of every list it
  // shingles: all of G, and each distinct G_I list of at least s2 members
  // once) must be at least 4x the tuples the two aggregations sort.
  const auto g = graph::generate_erdos_renyi(400, 0.2, 10);
  ShinglingParams p = small_params();
  p.c1 = 100;
  p.c2 = 50;
  obs::Tracer tracer;
  SerialShingler(p).cluster(g, &tracer);

  const BipartiteShingleGraph gi = aggregate_tuples(
      extract_shingles_serial(g.offsets(), g.adjacency(),
                              HashFamily(p.c1, p.prime, p.seed, 1), p.s1),
      p.s2);
  const DistinctLists pass2 = distinct_lists(gi);
  ASSERT_EQ(tracer.counter("pass2.lists"), pass2.lists.num_left());
  const double hashing =
      static_cast<double>(p.c1) * static_cast<double>(g.adjacency().size()) +
      static_cast<double>(p.c2) *
          static_cast<double>(pass2.lists.members.size());
  const auto sorted = static_cast<double>(tracer.counter("tuples"));
  ASSERT_GT(sorted, 0.0);
  EXPECT_GT(hashing / (hashing + sorted), 0.8);
}

TEST(SerialShingler, EmptyGraphYieldsNoClusters) {
  const graph::CsrGraph g;
  const auto c = SerialShingler(small_params()).cluster(g);
  EXPECT_EQ(c.num_clusters(), 0u);
}

TEST(SerialShingler, SingletonsStaySingletons) {
  graph::EdgeList e(10);  // vertices 5..9 isolated
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) e.add(i, j);
  }
  const auto g = graph::CsrGraph::from_edge_list(std::move(e));
  const auto c = SerialShingler(small_params()).cluster(g);
  EXPECT_TRUE(c.is_partition());
  EXPECT_EQ(c.num_clusters(), 6u);  // one 5-clique + 5 singletons
}

TEST(SerialShingler, ValidatesParams) {
  const auto g = graph::generate_erdos_renyi(10, 0.5, 1);
  ShinglingParams p = small_params();
  p.prime = 5;  // smaller than the vertex universe
  EXPECT_THROW(SerialShingler(p).cluster(g), InvalidArgument);
  p = small_params();
  p.c1 = 0;
  EXPECT_THROW(SerialShingler(p).cluster(g), InvalidArgument);
}

TEST(SerialShingler, OverlappingModeRuns) {
  const auto g = graph::generate_erdos_renyi(100, 0.15, 3);
  ShinglingParams p = small_params();
  p.mode = ReportMode::Overlapping;
  const auto c = SerialShingler(p).cluster(g);
  // Overlapping mode reports only component-induced clusters.
  for (const auto& cluster : c.clusters()) EXPECT_GE(cluster.size(), 1u);
}

}  // namespace
}  // namespace gpclust::core
