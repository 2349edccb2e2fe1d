#include "align/homology_graph.hpp"

#include <gtest/gtest.h>

#include "align/spgemm_seeds.hpp"
#include "device/device_context.hpp"
#include "seq/family_model.hpp"

namespace gpclust::align {
namespace {

TEST(HomologyGraph, ConnectsFamilyMembersNotStrangers) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 6;
  cfg.min_members = 4;
  cfg.max_members = 8;
  cfg.substitution_rate = 0.05;
  cfg.indel_rate = 0.0;
  cfg.fragment_min_fraction = 0.9;
  cfg.num_background_orfs = 10;
  cfg.seed = 3;
  const auto mg = seq::generate_metagenome(cfg);

  HomologyGraphConfig hcfg;
  hcfg.num_threads = 1;
  HomologyGraphStats stats;
  const auto g = build_homology_graph(mg.sequences, hcfg, &stats);

  ASSERT_EQ(g.num_vertices(), mg.sequences.size());
  EXPECT_GT(stats.num_candidate_pairs, 0u);
  EXPECT_GT(g.num_edges(), 0u);

  // Edges must be overwhelmingly intra-family; background ORFs isolated.
  std::size_t intra = 0, inter = 0;
  for (std::size_t u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(static_cast<VertexId>(u))) {
      if (v <= u) continue;
      (mg.family[u] == mg.family[v] ? intra : inter) += 1;
    }
  }
  EXPECT_GT(intra, 0u);
  EXPECT_EQ(inter, 0u);

  // Most family pairs should be recovered at this low divergence.
  std::size_t family_pairs = 0;
  for (std::size_t u = 0; u < mg.sequences.size(); ++u) {
    for (std::size_t v = u + 1; v < mg.sequences.size(); ++v) {
      if (mg.family[u] == mg.family[v]) ++family_pairs;
    }
  }
  EXPECT_GT(static_cast<double>(intra) / static_cast<double>(family_pairs),
            0.6);
}

TEST(HomologyGraph, ThresholdControlsEdgeCount) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 4;
  cfg.min_members = 5;
  cfg.max_members = 6;
  cfg.substitution_rate = 0.15;
  cfg.seed = 8;
  const auto mg = seq::generate_metagenome(cfg);

  HomologyGraphConfig loose;
  loose.num_threads = 1;
  loose.min_score_per_residue = 0.5;
  loose.min_score = 20;
  HomologyGraphConfig strict = loose;
  strict.min_score_per_residue = 4.0;
  strict.min_score = 200;

  const auto g_loose = build_homology_graph(mg.sequences, loose);
  const auto g_strict = build_homology_graph(mg.sequences, strict);
  EXPECT_GE(g_loose.num_edges(), g_strict.num_edges());
  EXPECT_GT(g_loose.num_edges(), 0u);
}

TEST(HomologyGraph, IdentityThresholdPrunesEdges) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 4;
  cfg.min_members = 5;
  cfg.max_members = 6;
  cfg.substitution_rate = 0.25;  // divergent members: moderate identity
  cfg.seed = 12;
  const auto mg = seq::generate_metagenome(cfg);

  HomologyGraphConfig loose;
  loose.num_threads = 1;
  loose.min_score_per_residue = 0.3;
  loose.min_score = 15;
  HomologyGraphConfig strict = loose;
  strict.min_identity = 0.95;  // members differ by ~25% substitutions

  const auto g_loose = build_homology_graph(mg.sequences, loose);
  const auto g_strict = build_homology_graph(mg.sequences, strict);
  EXPECT_GT(g_loose.num_edges(), 0u);
  EXPECT_LT(g_strict.num_edges(), g_loose.num_edges());
}

TEST(HomologyGraph, ParallelAndSerialAgree) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 5;
  cfg.min_members = 4;
  cfg.max_members = 6;
  cfg.seed = 21;
  const auto mg = seq::generate_metagenome(cfg);

  HomologyGraphConfig serial_cfg;
  serial_cfg.num_threads = 1;
  HomologyGraphConfig parallel_cfg;
  parallel_cfg.num_threads = 4;

  const auto a = build_homology_graph(mg.sequences, serial_cfg);
  const auto b = build_homology_graph(mg.sequences, parallel_cfg);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.adjacency(), b.adjacency());
  EXPECT_EQ(a.offsets(), b.offsets());
}

TEST(HomologyGraph, EmptyInput) {
  const auto g = build_homology_graph({}, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(HomologyGraph, SimdAndScalarPathsProduceIdenticalGraphs) {
  // The acceptance bar for the fast path: switching the verify backend
  // must not move a single edge, in either seed mode.
  seq::FamilyModelConfig cfg;
  cfg.num_families = 6;
  cfg.min_members = 4;
  cfg.max_members = 7;
  cfg.substitution_rate = 0.12;
  cfg.indel_rate = 0.02;
  cfg.seed = 44;
  const auto mg = seq::generate_metagenome(cfg);

  for (SeedMode mode : {SeedMode::KmerCount, SeedMode::MaximalMatch}) {
    HomologyGraphConfig simd_cfg;
    simd_cfg.seed_mode = mode;
    simd_cfg.num_threads = 1;
    simd_cfg.verify_backend = VerifyBackend::HostSimd;
    HomologyGraphConfig scalar_cfg = simd_cfg;
    scalar_cfg.verify_backend = VerifyBackend::HostScalar;

    HomologyGraphStats simd_stats, scalar_stats;
    const auto g_simd = build_homology_graph(mg.sequences, simd_cfg, &simd_stats);
    const auto g_scalar =
        build_homology_graph(mg.sequences, scalar_cfg, &scalar_stats);
    EXPECT_EQ(g_simd.adjacency(), g_scalar.adjacency());
    EXPECT_EQ(g_simd.offsets(), g_scalar.offsets());
    EXPECT_EQ(simd_stats.num_score_alignments,
              scalar_stats.num_score_alignments);
    EXPECT_EQ(simd_stats.num_edges, scalar_stats.num_edges);
  }
}

TEST(HomologyGraph, SimdAndScalarAgreeWithIdentityThreshold) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 4;
  cfg.min_members = 4;
  cfg.max_members = 6;
  cfg.substitution_rate = 0.2;
  cfg.seed = 63;
  const auto mg = seq::generate_metagenome(cfg);

  HomologyGraphConfig simd_cfg;
  simd_cfg.num_threads = 1;
  simd_cfg.min_identity = 0.7;
  simd_cfg.min_score_per_residue = 0.5;
  simd_cfg.min_score = 20;
  HomologyGraphConfig scalar_cfg = simd_cfg;
  scalar_cfg.verify_backend = VerifyBackend::HostScalar;

  const auto g_simd = build_homology_graph(mg.sequences, simd_cfg);
  const auto g_scalar = build_homology_graph(mg.sequences, scalar_cfg);
  EXPECT_EQ(g_simd.adjacency(), g_scalar.adjacency());
  EXPECT_EQ(g_simd.offsets(), g_scalar.offsets());
}

TEST(HomologyGraph, StatsSeparateScoreAndTracedRuns) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 4;
  cfg.min_members = 4;
  cfg.max_members = 6;
  cfg.substitution_rate = 0.1;
  cfg.seed = 91;
  const auto mg = seq::generate_metagenome(cfg);

  // Without an identity threshold no traceback ever runs, and every
  // candidate either hits an exact tier or one score DP.
  HomologyGraphConfig plain;
  plain.num_threads = 1;
  HomologyGraphStats s0;
  build_homology_graph(mg.sequences, plain, &s0);
  EXPECT_EQ(s0.num_traced_alignments, 0u);
  EXPECT_EQ(s0.num_alignments, s0.num_score_alignments);
  EXPECT_GT(s0.num_exact_accepts, 0u);
  EXPECT_EQ(s0.num_score_alignments + s0.num_exact_accepts,
            s0.num_surviving_pairs);
  EXPECT_EQ(s0.num_surviving_pairs + s0.num_exact_rejects,
            s0.num_candidate_pairs);
  EXPECT_EQ(s0.simd.runs_8bit + s0.simd.rescues_16bit +
                s0.simd.scalar_fallbacks,
            s0.num_score_alignments);

  // With an identity threshold, traced DP runs add on top of score runs —
  // the former num_alignments = pairs.size() undercounted this work — and
  // the accept tier is off, since the gate needs every traceback.
  HomologyGraphConfig with_identity = plain;
  with_identity.min_identity = 0.1;
  HomologyGraphStats s1;
  build_homology_graph(mg.sequences, with_identity, &s1);
  EXPECT_GT(s1.num_traced_alignments, 0u);
  EXPECT_EQ(s1.num_exact_accepts, 0u);
  EXPECT_EQ(s1.num_score_alignments, s1.num_surviving_pairs);
  EXPECT_EQ(s1.num_alignments,
            s1.num_score_alignments + s1.num_traced_alignments);
  EXPECT_GT(s1.num_alignments, s1.num_candidate_pairs - s1.num_exact_rejects);

  // Counter attribution is backend-independent: the scalar and
  // device-batched backends must report the exact same score/traced/
  // reject/accept breakdown as the SIMD run above — a pair is accepted
  // without a DP or scored exactly once no matter where (or in how many
  // batches) the DP runs.
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  for (HomologyGraphStats base : {s0, s1}) {
    HomologyGraphConfig cfg_scalar =
        base.num_traced_alignments > 0 ? with_identity : plain;
    cfg_scalar.verify_backend = VerifyBackend::HostScalar;
    HomologyGraphConfig cfg_device = cfg_scalar;
    cfg_device.verify_backend = VerifyBackend::DeviceBatched;
    cfg_device.device_verify.context = &ctx;
    cfg_device.device_verify.max_batch_pairs = 7;  // force multi-batch
    cfg_device.device_verify.num_streams = 2;

    HomologyGraphStats st_scalar, st_device;
    build_homology_graph(mg.sequences, cfg_scalar, &st_scalar);
    build_homology_graph(mg.sequences, cfg_device, &st_device);
    for (const HomologyGraphStats* st : {&st_scalar, &st_device}) {
      EXPECT_EQ(st->num_score_alignments, base.num_score_alignments);
      EXPECT_EQ(st->num_traced_alignments, base.num_traced_alignments);
      EXPECT_EQ(st->num_exact_rejects, base.num_exact_rejects);
      EXPECT_EQ(st->num_exact_accepts, base.num_exact_accepts);
      EXPECT_EQ(st->num_surviving_pairs, base.num_surviving_pairs);
      EXPECT_EQ(st->num_score_alignments + st->num_exact_accepts,
                st->num_surviving_pairs);
      EXPECT_EQ(st->num_alignments, base.num_alignments);
      EXPECT_EQ(st->num_edges, base.num_edges);
    }
    // Only the undecided pairs reach the device, 7 to a batch.
    EXPECT_EQ(st_device.device.num_batches,
              (base.num_score_alignments + 6) / 7);
    EXPECT_EQ(ctx.arena().used(), 0u);
  }
}

TEST(HomologyGraph, TracerRecordsPhaseSpansAndCounters) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 3;
  cfg.min_members = 3;
  cfg.max_members = 4;
  cfg.seed = 7;
  const auto mg = seq::generate_metagenome(cfg);

  obs::Tracer tracer;
  HomologyGraphConfig hcfg;
  hcfg.num_threads = 1;
  hcfg.tracer = &tracer;
  HomologyGraphStats stats;
  build_homology_graph(mg.sequences, hcfg, &stats);

  EXPECT_EQ(tracer.counter("homology_candidate_pairs"),
            stats.num_candidate_pairs);
  EXPECT_EQ(tracer.counter("homology_alignments"), stats.num_alignments);
  EXPECT_EQ(tracer.counter("homology_edges"), stats.num_edges);
  // All three phase spans present, all host-measured.
  for (const char* phase : {"homology.seed", "homology.verify",
                            "homology.graph"}) {
    bool found = false;
    for (const auto& e : tracer.events()) {
      if (e.name == phase) {
        found = true;
        EXPECT_EQ(e.domain, obs::Domain::HostMeasured);
      }
    }
    EXPECT_TRUE(found) << phase;
  }
}

TEST(HomologyGraphSeedMode, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_seed_mode("kmer"), SeedMode::KmerCount);
  EXPECT_EQ(parse_seed_mode("maximal"), SeedMode::MaximalMatch);
  EXPECT_EQ(parse_seed_mode("minhash"), SeedMode::MinHashLsh);
  for (const auto mode : {SeedMode::KmerCount, SeedMode::MaximalMatch,
                          SeedMode::MinHashLsh}) {
    EXPECT_EQ(parse_seed_mode(std::string(seed_mode_name(mode))), mode);
  }
  // SpGEMM is a bench ablation (align/spgemm_seeds), not a seed mode.
  EXPECT_THROW(parse_seed_mode("spgemm"), InvalidArgument);
  EXPECT_THROW(parse_seed_mode("lsh"), InvalidArgument);
  EXPECT_THROW(parse_seed_mode(""), InvalidArgument);
}

namespace {
seq::SyntheticMetagenome seed_mode_workload(u64 seed) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 8;
  cfg.min_members = 3;
  cfg.max_members = 6;
  cfg.num_background_orfs = 10;
  cfg.seed = seed;
  return seq::generate_metagenome(cfg);
}
}  // namespace

TEST(HomologyGraphSeedMode, DefaultKmerEdgeSetIsPinned) {
  // The default-config edge set predates the SeedMode seam; these digests
  // were captured before it existed and must never move while
  // seed_mode == KmerCount stays the default. (A digest move means the
  // default candidate stream — not just its packaging — changed.)
  struct Pin {
    u64 seed;
    u64 digest;
  };
  for (const auto& pin : {Pin{7, 0x145026cc057940e0ull},
                          Pin{1234, 0xc83772c0497efd44ull}}) {
    const auto mg = seed_mode_workload(pin.seed);
    HomologyGraphConfig cfg;
    cfg.num_threads = 1;
    EXPECT_EQ(build_homology_graph(mg.sequences, cfg).digest(), pin.digest)
        << "seed " << pin.seed;
  }
}

TEST(HomologyGraphSeedMode, SpGemmEmitsBitIdenticalEdges) {
  // The SpGEMM ablation feeds stages 2 + 3 directly, the way
  // bench_graph_scale runs it: same candidates, same edge set.
  for (const u64 seed : {u64{7}, u64{1234}}) {
    const auto mg = seed_mode_workload(seed);
    HomologyGraphConfig cfg;
    cfg.num_threads = 1;
    HomologyGraphStats ks;
    const u64 kd = build_homology_graph(mg.sequences, cfg, &ks).digest();
    const auto pairs = find_candidate_pairs_spgemm(mg.sequences, cfg.seeds);
    const auto accepted = verify_candidate_pairs(mg.sequences, pairs, cfg);
    graph::EdgeList edges(mg.sequences.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (accepted[i]) edges.add(pairs[i].a, pairs[i].b);
    }
    EXPECT_EQ(graph::CsrGraph::from_edge_list(std::move(edges)).digest(), kd)
        << "seed " << seed;
    EXPECT_EQ(pairs.size(), ks.num_candidate_pairs);
  }
}

TEST(HomologyGraphSeedMode, MinHashDigestStableAcrossThreadsAndBackends) {
  const auto mg = seed_mode_workload(7);
  HomologyGraphConfig cfg;
  cfg.seed_mode = SeedMode::MinHashLsh;
  cfg.num_threads = 1;
  HomologyGraphStats base_stats;
  const u64 expected =
      build_homology_graph(mg.sequences, cfg, &base_stats).digest();
  EXPECT_GT(base_stats.num_edges, 0u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    HomologyGraphConfig t = cfg;
    t.num_threads = threads;
    EXPECT_EQ(build_homology_graph(mg.sequences, t).digest(), expected)
        << threads << " threads";
  }
  HomologyGraphConfig scalar = cfg;
  scalar.verify_backend = VerifyBackend::HostScalar;
  EXPECT_EQ(build_homology_graph(mg.sequences, scalar).digest(), expected);
}

TEST(HomologyGraphSeedMode, SeedPeakBytesReportedAndTraced) {
  const auto mg = seed_mode_workload(1234);
  for (const auto mode : {SeedMode::KmerCount, SeedMode::MinHashLsh}) {
    obs::Tracer tracer;
    HomologyGraphConfig cfg;
    cfg.seed_mode = mode;
    cfg.num_threads = 1;
    cfg.tracer = &tracer;
    HomologyGraphStats stats;
    build_homology_graph(mg.sequences, cfg, &stats);
    EXPECT_GT(stats.seed_peak_candidate_bytes, 0u)
        << seed_mode_name(mode);
    EXPECT_EQ(tracer.counter("homology_seed_peak_candidate_bytes"),
              stats.seed_peak_candidate_bytes)
        << seed_mode_name(mode);
    bool sketch_span = false;
    for (const auto& e : tracer.events()) {
      if (e.name == "homology.sketch") sketch_span = true;
    }
    EXPECT_EQ(sketch_span, mode == SeedMode::MinHashLsh)
        << seed_mode_name(mode);
  }
}

}  // namespace
}  // namespace gpclust::align
