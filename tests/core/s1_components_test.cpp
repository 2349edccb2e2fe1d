// S1ComponentBuilder and every engine against the paper-literal path it
// replaces: a full pass 2 over all of G_I, G_II aggregated by
// aggregate_tuples and reported by report_dense_subgraphs(gi, gii, …).
// All engines share the pass-2 merge, the G_I pruning and the
// distinct-list collapse, so comparing them with each other alone would
// not catch a wrong shortcut; every check here compares with that
// reference instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster_report.hpp"
#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "core/shingle.hpp"
#include "dist/dist_shingling.hpp"
#include "fault/fault_plan.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace gpclust::core {
namespace {

/// G_I with one list per S1 node: node f lists vertices {f, f + 1}.
BipartiteShingleGraph chain_gi(std::size_t num_s1) {
  BipartiteShingleGraph gi;
  gi.offsets.push_back(0);
  for (u32 f = 0; f < num_s1; ++f) {
    gi.members.push_back(f);
    gi.members.push_back(f + 1);
    gi.offsets.push_back(gi.members.size());
  }
  return gi;
}

Clustering reference_report(const BipartiteShingleGraph& gi,
                            ShingleTuples tuples, std::size_t num_vertices,
                            ReportMode mode) {
  return report_dense_subgraphs(gi, aggregate_tuples(std::move(tuples)),
                                num_vertices, mode);
}

/// Feeds `tuples` to a builder in `pieces` consecutive slices of uneven
/// length, as the device pass feeds its batches.
S1ComponentBuilder fed_builder(std::size_t num_s1, const ShingleTuples& tuples,
                               std::size_t pieces) {
  S1ComponentBuilder builder(num_s1);
  std::size_t begin = 0;
  for (std::size_t p = 0; p < pieces; ++p) {
    // Each slice takes a third of what is left (the last takes the rest).
    const std::size_t end =
        p + 1 == pieces ? tuples.size()
                        : std::min(tuples.size(),
                                   begin + (tuples.size() - begin) / 3 + 1);
    ShingleTuples slice;
    slice.shingle.assign(tuples.shingle.begin() + begin,
                         tuples.shingle.begin() + end);
    slice.owner.assign(tuples.owner.begin() + begin,
                       tuples.owner.begin() + end);
    builder.add(std::move(slice));
    begin = end;
  }
  return builder;
}

/// The builder's report equals the reference exactly — same clusters in
/// the same order — in both modes and for every slicing, and its distinct
/// count equals G_II's left-node count.
void expect_matches_reference(const BipartiteShingleGraph& gi,
                              const ShingleTuples& tuples,
                              std::size_t num_vertices) {
  const std::size_t distinct =
      aggregate_tuples(ShingleTuples(tuples)).num_left();
  for (ReportMode mode : {ReportMode::Partition, ReportMode::Overlapping}) {
    const Clustering expected =
        reference_report(gi, tuples, num_vertices, mode);
    for (std::size_t pieces : {1u, 2u, 5u}) {
      const S1ComponentBuilder builder =
          fed_builder(gi.num_left(), tuples, pieces);
      EXPECT_EQ(builder.num_shingles(), distinct) << "pieces=" << pieces;
      const Clustering got = report_dense_subgraphs(
          gi, builder.components(), num_vertices, mode);
      EXPECT_EQ(got.clusters(), expected.clusters())
          << "pieces=" << pieces << " mode=" << static_cast<int>(mode);
    }
  }
}

TEST(S1ComponentBuilder, DuplicatePairsCollapse) {
  const auto gi = chain_gi(6);
  ShingleTuples t;
  for (int rep = 0; rep < 3; ++rep) {
    t.append(100, 0);
    t.append(100, 2);
    t.append(200, 4);
  }
  expect_matches_reference(gi, t, 7);
  S1ComponentBuilder builder(6);
  builder.add(ShingleTuples(t));
  EXPECT_EQ(builder.num_shingles(), 2u);
  const S1Components comps = builder.components();
  EXPECT_EQ(comps.count, 2u);
  EXPECT_EQ(comps.of[0], comps.of[2]);
  EXPECT_NE(comps.of[0], comps.of[4]);
}

TEST(S1ComponentBuilder, IdEmittedByTwoTrialsMerges) {
  // The same 64-bit id from two trials (a cross-trial hash collision)
  // groups its owners exactly as the sort does: 1 and 3 join.
  const auto gi = chain_gi(5);
  ShingleTuples t;
  t.append(hash_shingle(0, std::vector<u64>{1, 2}), 0);
  t.append(0xfeedULL, 1);
  t.append(hash_shingle(1, std::vector<u64>{1, 2}), 2);
  t.append(0xfeedULL, 3);
  expect_matches_reference(gi, t, 6);
  S1ComponentBuilder builder(5);
  builder.add(ShingleTuples(t));
  const S1Components comps = builder.components();
  EXPECT_EQ(comps.of[1], comps.of[3]);
  EXPECT_NE(comps.of[0], comps.of[2]);
}

TEST(S1ComponentBuilder, IdsEqualInOneHalfStayApart) {
  // Every id shares its low or its high 32 bits with 47 others; the map
  // compares all 64, so each owner stays its own component.
  const auto gi = chain_gi(96);
  ShingleTuples t;
  for (u32 i = 0; i < 48; ++i) {
    t.append((u64{i + 1} << 32) | 7, i);
    t.append((u64{7} << 32) | (i + 1000), 48 + i);
  }
  expect_matches_reference(gi, t, 97);
  S1ComponentBuilder builder(96);
  builder.add(std::move(t));
  EXPECT_EQ(builder.num_shingles(), 96u);
  EXPECT_EQ(builder.components().count, 96u);
}

TEST(S1ComponentBuilder, SilentS1NodesBelongToNoComponent) {
  const auto gi = chain_gi(8);
  ShingleTuples t;
  t.append(7, 6);
  t.append(7, 1);
  t.append(9, 4);
  expect_matches_reference(gi, t, 9);
  S1ComponentBuilder builder(8);
  builder.add(ShingleTuples(t));
  const S1Components comps = builder.components();
  // Numbered by smallest member: {1, 6} first, then {4}.
  EXPECT_EQ(comps.count, 2u);
  EXPECT_EQ(comps.of[1], 0u);
  EXPECT_EQ(comps.of[6], 0u);
  EXPECT_EQ(comps.of[4], 1u);
  for (u32 f : {0u, 2u, 3u, 5u, 7u}) {
    EXPECT_EQ(comps.of[f], S1Components::kNone) << f;
  }
}

TEST(S1ComponentBuilder, EmptyInput) {
  const auto gi = chain_gi(4);
  expect_matches_reference(gi, ShingleTuples{}, 5);
  const S1ComponentBuilder none(0);
  EXPECT_EQ(none.num_shingles(), 0u);
  EXPECT_EQ(none.components().count, 0u);
}

TEST(S1ComponentBuilder, RejectsUnknownOwner) {
  S1ComponentBuilder builder(3);
  ShingleTuples t;
  t.append(1, 3);
  EXPECT_THROW(builder.add(std::move(t)), InvalidArgument);
}

TEST(S1ComponentBuilder, ManyWindowsAndWorkersMatchReference) {
  // Enough tuples for several merge windows and every pool worker: ids
  // repeat within a "trial" of consecutive tuples and occasionally across
  // trials, owners are drawn from a few thousand S1 nodes, and a quarter
  // of the S1 nodes never emit.
  constexpr std::size_t kNumS1 = 4000;
  const auto gi = chain_gi(kNumS1);
  util::Xoshiro256 rng(27);
  ShingleTuples t;
  for (u32 trial = 0; trial < 24; ++trial) {
    for (std::size_t i = 0; i < 25000; ++i) {
      const u64 group = rng.next_below(i % 97 == 0 ? 50 : 6000);
      const u64 id =
          util::mix64((i % 97 == 0 ? 0 : u64{trial} << 32) + group);
      t.append(id, static_cast<u32>(rng.next_below(kNumS1 - kNumS1 / 4)));
    }
  }
  expect_matches_reference(gi, t, kNumS1 + 1);
}

// -- Every engine against the reference -----------------------------------

graph::CsrGraph engine_test_graph() {
  graph::PlantedFamilyConfig cfg;
  cfg.num_families = 9;
  cfg.min_family_size = 5;
  cfg.max_family_size = 18;
  cfg.num_singletons = 7;
  cfg.seed = 2718;
  return graph::generate_planted_families(cfg).graph;
}

ShinglingParams engine_test_params(ReportMode mode) {
  ShinglingParams params;
  params.c1 = 8;
  params.c2 = 4;
  params.mode = mode;
  return params;
}

struct Reference {
  Clustering clustering;
  /// Pass-2 tuples the engines emit: c2 per distinct G_I list of at least
  /// s2 members, since each such list is shingled once.
  std::size_t tuples2 = 0;
  std::size_t pass2_lists = 0;
  std::size_t eligible_lists = 0;  ///< G_I lists of at least s2 members
  std::size_t short_lists = 0;     ///< the others
  std::size_t g1_shingles = 0;
  std::size_t g2_shingles = 0;
};

/// The paper-literal path: a full pass 2 over every G_I list, G_II sorted
/// by aggregate_tuples and report_dense_subgraphs(gi, gii, …).
Reference reference_run(const graph::CsrGraph& g,
                        const ShinglingParams& params) {
  const HashFamily family1(params.c1, params.prime, params.seed, 1);
  const HashFamily family2(params.c2, params.prime, params.seed, 2);
  const BipartiteShingleGraph gi = aggregate_tuples(
      extract_shingles_serial(g.offsets(), g.adjacency(), family1, params.s1));
  ShingleTuples tuples2 =
      extract_shingles_serial(gi.offsets, gi.members, family2, params.s2);
  // The full pass 2 emits c2 tuples per list of at least s2 members; the
  // engines shingle each distinct such list once.
  std::set<std::vector<u32>> distinct;
  Reference ref;
  for (std::size_t f = 0; f < gi.num_left(); ++f) {
    const auto l = gi.list(f);
    if (l.size() < params.s2) {
      ++ref.short_lists;
      continue;
    }
    ++ref.eligible_lists;
    distinct.emplace(l.begin(), l.end());
  }
  EXPECT_EQ(tuples2.size(), std::size_t{params.c2} * ref.eligible_lists);
  ref.tuples2 = std::size_t{params.c2} * distinct.size();
  ref.pass2_lists = distinct.size();
  ref.g1_shingles = gi.num_left();
  const BipartiteShingleGraph gii = aggregate_tuples(std::move(tuples2));
  ref.g2_shingles = gii.num_left();
  ref.clustering =
      report_dense_subgraphs(gi, gii, g.num_vertices(), params.mode);
  return ref;
}

/// The partition and the shingle counts equal the reference's.
void expect_same_clusters(Clustering got, const Reference& ref,
                          const obs::Tracer& tracer,
                          const std::string& label) {
  Clustering expected = ref.clustering;
  expected.normalize();
  got.normalize();
  EXPECT_EQ(got.digest(), expected.digest()) << label;
  EXPECT_EQ(tracer.counter("g1.shingles"), ref.g1_shingles) << label;
  EXPECT_EQ(tracer.counter("g2.shingles"), ref.g2_shingles) << label;
  EXPECT_EQ(tracer.counter("shingles"), ref.g1_shingles + ref.g2_shingles)
      << label;
}

/// The single-node engines also keep the reference's cluster order and
/// run pass 2 once per distinct list.
void expect_equals_reference(Clustering got, const Reference& ref,
                             const obs::Tracer& tracer,
                             const std::string& label) {
  EXPECT_EQ(got.clusters(), ref.clustering.clusters()) << label;
  expect_same_clusters(std::move(got), ref, tracer, label);
  // A retried or replanned batch lands its tuples once.
  EXPECT_EQ(tracer.counter("pass2.tuples"), ref.tuples2) << label;
  EXPECT_EQ(tracer.counter("pass2.lists"), ref.pass2_lists) << label;
}

std::string mode_label(ReportMode mode) {
  return mode == ReportMode::Partition ? " partition" : " overlapping";
}

/// A transient copy fault (retried), an OOM (replanned at half the batch
/// size), then persistent kernel faults from pass 2's `kernel_offset`-th
/// kernel call on, which finish the pass on the CPU. Pass 1's device calls
/// are counted first, so every fault lands in pass 2.
fault::FaultPlan pass2_fault_plan(const graph::CsrGraph& g,
                                  const ShinglingParams& params,
                                  std::size_t batch, u64 alloc_offset,
                                  u64 kernel_offset) {
  fault::FaultPlan probe;
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  ctx.set_fault_plan(&probe);
  DevicePassOptions pass;
  pass.max_batch_elements = batch;
  extract_shingles_device(
      ctx, g.offsets(), g.adjacency(),
      HashFamily(params.c1, params.prime, params.seed, 1), params.s1, pass);
  ctx.set_fault_plan(nullptr);
  const u64 allocs = probe.calls(fault::FaultSite::Alloc);
  const u64 h2d = probe.calls(fault::FaultSite::H2D);
  const u64 kernels = probe.calls(fault::FaultSite::Kernel);
  return fault::FaultPlan::parse(
      "xfer_fail@h2d:" + std::to_string(h2d + 1) +
      ",oom@alloc:" + std::to_string(allocs + alloc_offset) +
      ",kernel_fail@kernel:" + std::to_string(kernels + kernel_offset) + "-" +
      std::to_string(kernels + 10000));
}

TEST(FusedAggregation, SerialShinglerMatchesReference) {
  const auto g = engine_test_graph();
  for (ReportMode mode : {ReportMode::Partition, ReportMode::Overlapping}) {
    const auto params = engine_test_params(mode);
    const Reference ref = reference_run(g, params);
    EXPECT_LT(ref.pass2_lists, ref.eligible_lists);  // repeated lists
    obs::Tracer tracer;
    expect_equals_reference(SerialShingler(params).cluster(g, &tracer), ref,
                            tracer, "serial");
  }
}

TEST(FusedAggregation, GpClustMatchesReferenceAcrossBatchesAndStreams) {
  const auto g = engine_test_graph();
  for (ReportMode mode : {ReportMode::Partition, ReportMode::Overlapping}) {
    const auto params = engine_test_params(mode);
    const Reference ref = reference_run(g, params);
    for (std::size_t batch : {std::size_t{31}, std::size_t{0}}) {
      for (std::size_t streams : {1u, 2u, 4u}) {
        device::DeviceContext ctx(
            device::DeviceSpec::small_test_device(4 << 20));
        obs::Tracer tracer;
        GpClustOptions options;
        options.max_batch_elements = batch;
        options.num_streams = streams;
        options.tracer = &tracer;
        GpClustReport report;
        const Clustering got =
            GpClust(ctx, params, options).cluster(g, &report);
        const std::string label = "batch=" + std::to_string(batch) +
                                  " streams=" + std::to_string(streams) +
                                  mode_label(mode);
        expect_equals_reference(got, ref, tracer, label);
        EXPECT_EQ(ctx.arena().used(), 0u) << label;
        if (batch != 0) {
          // The small prime batch splits lists across a multi-batch pass 2.
          EXPECT_GT(report.pass2.num_batches, 1u) << label;
          EXPECT_GT(report.pass2.num_split_lists, 0u) << label;
        }
      }
    }
  }
}

TEST(FusedAggregation, GpClustMatchesReferenceUnderPass2Faults) {
  const auto g = engine_test_graph();
  const auto params = engine_test_params(ReportMode::Partition);
  const Reference ref = reference_run(g, params);
  constexpr std::size_t kBatch = 31;
  auto plan = pass2_fault_plan(g, params, kBatch, 12, 90);
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  obs::Tracer tracer;
  GpClustOptions options;
  options.max_batch_elements = kBatch;
  options.fault_plan = &plan;
  options.resilience.mode = fault::ResilienceMode::Fallback;
  options.tracer = &tracer;
  GpClustReport report;
  const Clustering got = GpClust(ctx, params, options).cluster(g, &report);

  expect_equals_reference(got, ref, tracer, plan.to_string());
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(report.pass1.num_retries + report.pass1.num_batch_replans, 0u);
  EXPECT_FALSE(report.pass1.cpu_fallback);
  EXPECT_GE(report.pass2.num_retries, 1u);
  EXPECT_GE(report.pass2.num_batch_replans, 1u);
  EXPECT_TRUE(report.pass2.cpu_fallback);
}

TEST(FusedAggregation, DroppingShortListsKeepsTheReference) {
  // A sparse graph: most first-level shingles have one owner, so most G_I
  // lists are shorter than s2 and the shared aggregation drops them. The
  // partitions, the g1.shingles count (every first-level shingle) and the
  // lists pass 2 runs on stay those of the unpruned reference.
  const auto g = graph::generate_erdos_renyi(400, 0.01, 14);
  for (ReportMode mode : {ReportMode::Partition, ReportMode::Overlapping}) {
    const auto params = engine_test_params(mode);
    const Reference ref = reference_run(g, params);
    EXPECT_GT(ref.short_lists, 4 * ref.eligible_lists);
    EXPECT_GT(ref.eligible_lists, 0u);
    obs::Tracer serial_tracer;
    expect_equals_reference(SerialShingler(params).cluster(g, &serial_tracer),
                            ref, serial_tracer, "serial" + mode_label(mode));
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    obs::Tracer tracer;
    GpClustOptions options;
    options.max_batch_elements = 31;
    options.tracer = &tracer;
    expect_equals_reference(GpClust(ctx, params, options).cluster(g), ref,
                            tracer, "gpclust" + mode_label(mode));
  }
}

// -- Randomized differential sweep -----------------------------------------

enum class GraphKind { Planted, PowerLaw, ErdosRenyi };

graph::CsrGraph sweep_graph(GraphKind kind, u64 seed) {
  switch (kind) {
    case GraphKind::Planted: {
      graph::PlantedFamilyConfig cfg;
      cfg.num_families = 6;
      cfg.min_family_size = 4;
      cfg.max_family_size = 16;
      cfg.num_singletons = 6;
      cfg.seed = 900 + seed;
      return graph::generate_planted_families(cfg).graph;
    }
    case GraphKind::PowerLaw:
      return graph::generate_power_law(160, 6.0, 1.8, 700 + seed);
    case GraphKind::ErdosRenyi:
      return graph::generate_erdos_renyi(120, 0.06, 500 + seed);
  }
  return {};
}

std::string sweep_name(
    const ::testing::TestParamInfo<std::tuple<GraphKind, int>>& info) {
  constexpr const char* kKinds[] = {"Planted", "PowerLaw", "ErdosRenyi"};
  return kKinds[static_cast<int>(std::get<0>(info.param))] +
         std::to_string(std::get<1>(info.param));
}

class DifferentialSweep
    : public ::testing::TestWithParam<std::tuple<GraphKind, int>> {};

TEST_P(DifferentialSweep, EveryEngineMatchesThePaperLiteralPath) {
  const auto [kind, seed] = GetParam();
  const auto g = sweep_graph(kind, static_cast<u64>(seed));
  for (ReportMode mode : {ReportMode::Partition, ReportMode::Overlapping}) {
    auto params = engine_test_params(mode);
    params.seed = 40 + static_cast<u64>(seed);
    const Reference ref = reference_run(g, params);

    obs::Tracer serial_tracer;
    expect_equals_reference(SerialShingler(params).cluster(g, &serial_tracer),
                            ref, serial_tracer, "serial" + mode_label(mode));

    for (std::size_t batch : {std::size_t{31}, std::size_t{0}}) {
      for (std::size_t streams : {1u, 2u}) {
        device::DeviceContext ctx(
            device::DeviceSpec::small_test_device(4 << 20));
        obs::Tracer tracer;
        GpClustOptions options;
        options.max_batch_elements = batch;
        options.num_streams = streams;
        options.tracer = &tracer;
        const std::string label = "batch=" + std::to_string(batch) +
                                  " streams=" + std::to_string(streams) +
                                  mode_label(mode);
        expect_equals_reference(GpClust(ctx, params, options).cluster(g), ref,
                                tracer, label);
        EXPECT_EQ(ctx.arena().used(), 0u) << label;
      }
    }

    auto plan = pass2_fault_plan(g, params, 31, 6, 3);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
    obs::Tracer tracer;
    GpClustOptions options;
    options.max_batch_elements = 31;
    options.fault_plan = &plan;
    options.resilience.mode = fault::ResilienceMode::Fallback;
    options.tracer = &tracer;
    GpClustReport report;
    expect_equals_reference(GpClust(ctx, params, options).cluster(g, &report),
                            ref, tracer, plan.to_string() + mode_label(mode));
    EXPECT_EQ(ctx.arena().used(), 0u);
    EXPECT_GE(report.pass2.num_retries, 1u);
    EXPECT_GE(report.pass2.num_batch_replans, 1u);
    EXPECT_TRUE(report.pass2.cpu_fallback);

    for (std::size_t ranks : {1u, 3u, 4u}) {
      obs::Tracer dist_tracer;
      expect_same_clusters(
          dist::distributed_cluster(g, params, ranks, nullptr, &dist_tracer),
          ref, dist_tracer,
          "ranks=" + std::to_string(ranks) + mode_label(mode));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, DifferentialSweep,
    ::testing::Combine(::testing::Values(GraphKind::Planted,
                                         GraphKind::PowerLaw,
                                         GraphKind::ErdosRenyi),
                       ::testing::Range(0, 8)),
    sweep_name);

}  // namespace
}  // namespace gpclust::core
