// The streaming-ingest equivalence contract (DESIGN.md §15): for ANY split
// of an input into batches, IngestSession produces the same partition
// digest — and the same snapshot bytes — as a from-scratch run on the
// concatenated input with the same configuration. Exercised for multiple
// splits (including the batch-size-1 trickle), both supported seed modes,
// a forced repeat-mask crossing that revokes standing edges, resume from a
// persisted snapshot, and the device cluster engine. The delta path is
// held to the same standard batch by batch: the delta the session builds
// from its splice is byte-equal to the from-scratch diff of the two
// stores, and applying it reproduces the from-scratch store. Below the
// partition, the seed stage is held to pair level: a batch's candidates,
// diagonals included, are the from-scratch seed stage's new-involving
// pairs.

#include <gtest/gtest.h>

#include <numeric>

#include "align/homology_graph.hpp"
#include "align/lsh_seeds.hpp"
#include "core/serial_pclust.hpp"
#include "device/device_context.hpp"
#include "ingest/ingest_session.hpp"
#include "seq/family_model.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace gpclust::ingest {

/// The session's seed stage on its own: the candidates ingest(batch) would
/// hand to verification, leaving the session as it was.
struct IngestSeedProbe {
  static std::vector<align::CandidatePair> candidates(
      IngestSession& session, const seq::SequenceSet& batch) {
    const std::size_t first_new = session.sequences_.size();
    session.sequences_.insert(session.sequences_.end(), batch.begin(),
                              batch.end());
    const bool lsh =
        session.config_.graph.seed_mode == align::SeedMode::MinHashLsh;
    std::vector<align::CandidatePair> pairs =
        (lsh ? session.incremental_seed_lsh(first_new)
             : session.incremental_seed_kmer(first_new))
            .pairs;
    session.sequences_.resize(first_new);
    return pairs;
  }
};

}  // namespace gpclust::ingest

namespace gpclust {
namespace {

core::ShinglingParams test_params() {
  core::ShinglingParams params;
  params.c1 = 20;
  params.c2 = 10;
  return params;
}

/// The reference: full cascade + serial shingling over everything at once.
core::Clustering from_scratch(const seq::SequenceSet& sequences,
                              const align::HomologyGraphConfig& graph_config,
                              const core::ShinglingParams& params) {
  const graph::CsrGraph g = align::build_homology_graph(sequences,
                                                        graph_config);
  return core::SerialShingler(params).cluster(g);
}

std::vector<char> from_scratch_snapshot_bytes(
    const seq::SequenceSet& sequences,
    const align::HomologyGraphConfig& graph_config,
    const core::ShinglingParams& params,
    const store::StoreBuildConfig& store_config) {
  const core::Clustering reference =
      from_scratch(sequences, graph_config, params);
  return store::serialize_snapshot(
      store::build_family_store(sequences, reference.labels(), store_config));
}

seq::SequenceSet make_workload(u64 seed, std::size_t num_families) {
  seq::FamilyModelConfig config;
  config.num_families = num_families;
  config.min_members = 3;
  config.max_members = 8;
  config.substitution_rate = 0.08;
  config.fragment_min_fraction = 0.8;
  config.num_background_orfs = 6;
  config.seed = seed;
  return seq::generate_metagenome(config).sequences;
}

/// Splits `sequences` at the given fractions and replays them through a
/// fresh session; expects digest and snapshot-byte identity with the
/// from-scratch reference at the end.
void expect_split_equivalent(const seq::SequenceSet& sequences,
                             const ingest::IngestConfig& config,
                             const std::vector<std::size_t>& batch_sizes) {
  ASSERT_EQ(std::accumulate(batch_sizes.begin(), batch_sizes.end(),
                            std::size_t{0}),
            sequences.size());
  ingest::IngestSession session(config);
  std::size_t offset = 0;
  for (const std::size_t size : batch_sizes) {
    const seq::SequenceSet batch(
        sequences.begin() + static_cast<std::ptrdiff_t>(offset),
        sequences.begin() + static_cast<std::ptrdiff_t>(offset + size));
    session.ingest(batch);
    offset += size;
  }
  const core::Clustering reference =
      from_scratch(sequences, config.graph, config.shingling);
  EXPECT_EQ(session.partition_digest(), reference.digest())
      << batch_sizes.size() << " batches";
  EXPECT_EQ(store::serialize_snapshot(session.store()),
            from_scratch_snapshot_bytes(sequences, config.graph,
                                        config.shingling, config.store))
      << batch_sizes.size() << " batches";
}

/// Replays `sequences` through ingest_with_delta and checks every link
/// against the from-scratch reference: the session-built delta serializes
/// to the bytes build_snapshot_delta(prev, next) writes, and applying it
/// to the pre-batch store yields IngestSession::store() rebuilt from
/// scratch. The session patches its own store with the same
/// patch_family_store the apply runs, from a base that (by induction over
/// the links) equals `prev`, so the patched store equals `next` too — and
/// the delta's result CRC, computed from the patched store, matches.
void expect_delta_chain_equivalent(const seq::SequenceSet& sequences,
                                   const ingest::IngestConfig& config,
                                   const std::vector<std::size_t>& batch_sizes) {
  ingest::IngestSession session(config);
  std::size_t offset = 0;
  u64 link = 0;
  for (const std::size_t size : batch_sizes) {
    const seq::SequenceSet batch(
        sequences.begin() + static_cast<std::ptrdiff_t>(offset),
        sequences.begin() + static_cast<std::ptrdiff_t>(offset + size));
    offset += size;
    const store::FamilyStore prev = session.store();
    const store::SnapshotDelta delta = session.ingest_with_delta(batch, ++link);
    const store::FamilyStore next = session.store();
    EXPECT_EQ(store::serialize_delta(delta),
              store::serialize_delta(
                  store::build_snapshot_delta(prev, next, link)))
        << "link " << link;
    EXPECT_EQ(store::apply_snapshot_delta(prev, delta), next)
        << "link " << link;
  }
  EXPECT_EQ(store::serialize_snapshot(session.store()),
            from_scratch_snapshot_bytes(sequences, config.graph,
                                        config.shingling, config.store));
}

/// Random splits of `sequences`: before each batch is ingested, the
/// session's candidates for it — (a, b, shared_kmers, diag) — must equal
/// the from-scratch seed stage over everything ingested so far plus the
/// batch, restricted to the pairs the batch introduced (b >= first_new).
void expect_seed_pairs_match_from_scratch(const seq::SequenceSet& sequences,
                                          const ingest::IngestConfig& config,
                                          u64 split_seed) {
  const bool lsh = config.graph.seed_mode == align::SeedMode::MinHashLsh;
  util::Xoshiro256 rng(split_seed);
  ingest::IngestSession session(config);
  std::size_t batches = 0;
  for (std::size_t first_new = 0; first_new < sequences.size(); ++batches) {
    const std::size_t end =
        first_new + 1 + rng.next_below(sequences.size() - first_new);
    const seq::SequenceSet prefix(
        sequences.begin(), sequences.begin() + static_cast<std::ptrdiff_t>(end));
    const seq::SequenceSet batch(
        prefix.begin() + static_cast<std::ptrdiff_t>(first_new), prefix.end());
    std::vector<align::CandidatePair> expected =
        lsh ? align::find_candidate_pairs_lsh(prefix, config.graph.lsh)
            : align::find_candidate_pairs(prefix, config.graph.seeds);
    std::erase_if(expected, [&](const align::CandidatePair& p) {
      return p.b < first_new;
    });
    const std::vector<align::CandidatePair> got =
        ingest::IngestSeedProbe::candidates(session, batch);
    ASSERT_EQ(got.size(), expected.size())
        << "split " << split_seed << ", batch " << batches;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i] == expected[i])
          << "split " << split_seed << ", batch " << batches << ", pair ("
          << got[i].a << ", " << got[i].b << ", " << got[i].shared_kmers
          << ", " << got[i].diag << ") vs (" << expected[i].a << ", "
          << expected[i].b << ", " << expected[i].shared_kmers << ", "
          << expected[i].diag << ")";
    }
    session.ingest(batch);
    first_new = end;
  }
}

TEST(IngestSeedEquivalence, KmerCandidatesMatchFromScratchPairForPair) {
  const seq::SequenceSet sequences = make_workload(77, 6);
  ingest::IngestConfig config;
  config.shingling = test_params();
  for (const std::size_t max_occurrences : {std::size_t{200}, std::size_t{5}}) {
    SCOPED_TRACE("max_kmer_occurrences " + std::to_string(max_occurrences));
    config.graph.seeds.max_kmer_occurrences = max_occurrences;
    for (u64 split = 1; split <= 4; ++split) {
      expect_seed_pairs_match_from_scratch(sequences, config, split);
    }
  }
}

TEST(IngestSeedEquivalence, MinHashCandidatesMatchFromScratchPairForPair) {
  const seq::SequenceSet sequences = make_workload(78, 6);
  ingest::IngestConfig config;
  config.shingling = test_params();
  config.graph.seed_mode = align::SeedMode::MinHashLsh;
  config.graph.lsh.num_bands = 16;
  for (const u32 min_band_hits : {1u, 2u}) {
    SCOPED_TRACE("min_band_hits " + std::to_string(min_band_hits));
    config.graph.lsh.min_band_hits = min_band_hits;
    config.graph.lsh.max_bucket_size = min_band_hits == 1 ? 200 : 5;
    for (u64 split = 1; split <= 4; ++split) {
      expect_seed_pairs_match_from_scratch(sequences, config, split);
    }
  }
}

TEST(IngestDeltaEquivalence, SessionDeltasMatchTheReferenceEveryBatch) {
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  for (const bool lsh : {false, true}) {
    for (const bool device_engine : {false, true}) {
      SCOPED_TRACE(std::string(lsh ? "minhash" : "kmer") +
                   (device_engine ? "/device" : "/serial"));
      ingest::IngestConfig config;
      config.shingling = test_params();
      if (lsh) {
        config.graph.seed_mode = align::SeedMode::MinHashLsh;
        config.graph.lsh.num_bands = 16;
      }
      if (device_engine) {
        config.engine = ingest::ClusterEngine::Device;
        config.device = &ctx;
      }
      const seq::SequenceSet sequences = make_workload(lsh ? 73 : 71, 5);
      const std::size_t n = sequences.size();
      expect_delta_chain_equivalent(sequences, config,
                                    {n / 3, n / 3, n - 2 * (n / 3)});
      const seq::SequenceSet trickle = make_workload(72, 3);
      expect_delta_chain_equivalent(
          trickle, config, std::vector<std::size_t>(trickle.size(), 1));
      EXPECT_EQ(ctx.arena().used(), 0u);
    }
  }
}

TEST(IngestEquivalence, KmerModeBatchSplits) {
  const seq::SequenceSet sequences = make_workload(71, 6);
  ingest::IngestConfig config;
  config.shingling = test_params();
  const std::size_t n = sequences.size();

  expect_split_equivalent(sequences, config, {n});
  expect_split_equivalent(sequences, config, {n / 2, n - n / 2});
  expect_split_equivalent(sequences, config,
                          {n / 3, n / 3, n - 2 * (n / 3)});
}

TEST(IngestEquivalence, KmerModeTrickle) {
  // Batch-size-1: every sequence is its own ingest() call.
  const seq::SequenceSet sequences = make_workload(72, 4);
  ingest::IngestConfig config;
  config.shingling = test_params();
  expect_split_equivalent(sequences, config,
                          std::vector<std::size_t>(sequences.size(), 1));
}

TEST(IngestEquivalence, MinHashModeBatchSplits) {
  const seq::SequenceSet sequences = make_workload(73, 5);
  ingest::IngestConfig config;
  config.shingling = test_params();
  config.graph.seed_mode = align::SeedMode::MinHashLsh;
  config.graph.lsh.num_bands = 16;
  const std::size_t n = sequences.size();

  expect_split_equivalent(sequences, config, {n});
  expect_split_equivalent(sequences, config, {n / 2, n - n / 2});
  expect_split_equivalent(sequences, config,
                          {n / 4, n / 4, n / 4, n - 3 * (n / 4)});
}

TEST(IngestEquivalence, MaskCrossingRevokesStandingEdges) {
  // Five identical sequences and max_kmer_occurrences = 4: after the first
  // four, every shared k-mer is unmasked and the quad is a K4 of strong
  // edges; the fifth copy pushes every k-mer's occupancy to 5 > 4, so a
  // from-scratch run over all five finds NO candidates at all. The
  // incremental run must dirty and revoke all six standing edges — and
  // the new-involving pairs must come up empty — not keep stale clusters.
  std::string motif;
  const std::string alphabet = "ACDEFGHIKLMNPQRSTVWY";
  for (std::size_t i = 0; i < 60; ++i) {
    motif.push_back(alphabet[(i * 7 + 3) % alphabet.size()]);
  }
  seq::SequenceSet all;
  for (int i = 0; i < 5; ++i) {
    all.push_back({"copy" + std::to_string(i), motif});
  }

  ingest::IngestConfig config;
  config.shingling = test_params();
  config.graph.seeds.max_kmer_occurrences = 4;

  ingest::IngestSession session(config);
  session.ingest(seq::SequenceSet(all.begin(), all.begin() + 4));
  ASSERT_EQ(session.edges().size(), 6u);  // K4 over the identical copies

  const ingest::IngestBatchStats stats =
      session.ingest(seq::SequenceSet(all.begin() + 4, all.end()));
  EXPECT_EQ(stats.num_dirty_pairs, 6u);
  EXPECT_EQ(stats.num_revoked_edges, 6u);
  EXPECT_EQ(stats.num_accepted_edges, 0u);
  EXPECT_TRUE(session.edges().empty());
  EXPECT_EQ(session.num_families(), 5u);  // all singletons now

  const core::Clustering reference =
      from_scratch(all, config.graph, config.shingling);
  EXPECT_EQ(session.partition_digest(), reference.digest());
  EXPECT_EQ(store::serialize_snapshot(session.store()),
            from_scratch_snapshot_bytes(all, config.graph, config.shingling,
                                        config.store));
}

TEST(IngestEquivalence, ResumeFromSnapshot) {
  const seq::SequenceSet sequences = make_workload(74, 5);
  ingest::IngestConfig config;
  config.shingling = test_params();
  const std::size_t cut = 2 * sequences.size() / 3;
  const seq::SequenceSet head(sequences.begin(),
                              sequences.begin() +
                                  static_cast<std::ptrdiff_t>(cut));
  const seq::SequenceSet tail(sequences.begin() +
                                  static_cast<std::ptrdiff_t>(cut),
                              sequences.end());

  // Persist the head as a from-scratch snapshot, then resume and ingest
  // the tail.
  const core::Clustering head_reference =
      from_scratch(head, config.graph, config.shingling);
  const store::FamilyStore base =
      store::build_family_store(head, head_reference.labels(), config.store);

  ingest::IngestSession session(config, base);
  EXPECT_EQ(session.num_sequences(), head.size());
  EXPECT_EQ(session.num_families(), base.num_families);
  session.ingest(tail);

  const core::Clustering reference =
      from_scratch(sequences, config.graph, config.shingling);
  EXPECT_EQ(session.partition_digest(), reference.digest());
  EXPECT_EQ(store::serialize_snapshot(session.store()),
            from_scratch_snapshot_bytes(sequences, config.graph,
                                        config.shingling, config.store));
}

TEST(IngestSession, ResumeRefusesStoreParamsThatDoNotRebuildTheBase) {
  const seq::SequenceSet sequences = make_workload(74, 5);
  ingest::IngestConfig config;
  config.shingling = test_params();
  const store::FamilyStore base = store::build_family_store(
      sequences, from_scratch(sequences, config.graph, config.shingling)
                     .labels(),
      config.store);  // reps per family = 2

  // A delta chained off a reps=3 store could never apply to this base.
  ingest::IngestConfig mismatched = config;
  mismatched.store.reps_per_family = 3;
  EXPECT_THROW(ingest::IngestSession session(mismatched, base),
               InvalidArgument);

  // Matching parameters chain the first link straight off the base.
  ingest::IngestSession session(config, base);
  const store::SnapshotDelta delta =
      session.ingest_with_delta(make_workload(75, 1), 1);
  EXPECT_EQ(delta.base_crc, store::snapshot_crc(base));
  EXPECT_EQ(store::apply_snapshot_delta(base, delta), session.store());
}

TEST(IngestEquivalence, DeviceEngineAndBackendMatchSerial) {
  // Device shingling engine + DeviceBatched verification reproduce the
  // serial session bit-for-bit, and the arena is empty after every batch.
  const seq::SequenceSet sequences = make_workload(75, 4);
  const std::size_t half = sequences.size() / 2;
  const seq::SequenceSet first(sequences.begin(),
                               sequences.begin() +
                                   static_cast<std::ptrdiff_t>(half));
  const seq::SequenceSet second(sequences.begin() +
                                    static_cast<std::ptrdiff_t>(half),
                                sequences.end());

  ingest::IngestConfig serial_config;
  serial_config.shingling = test_params();
  ingest::IngestSession serial(serial_config);
  serial.ingest(first);
  serial.ingest(second);

  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  ingest::IngestConfig device_config;
  device_config.shingling = test_params();
  device_config.engine = ingest::ClusterEngine::Device;
  device_config.device = &ctx;
  device_config.graph.verify_backend = align::VerifyBackend::DeviceBatched;
  device_config.graph.device_verify.context = &ctx;
  ingest::IngestSession session(device_config);
  session.ingest(first);
  EXPECT_EQ(ctx.arena().used(), 0u);
  session.ingest(second);
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);

  EXPECT_EQ(session.partition_digest(), serial.partition_digest());
}

TEST(IngestSession, RejectsNonIncrementalConfigs) {
  ingest::IngestConfig maximal;
  maximal.graph.seed_mode = align::SeedMode::MaximalMatch;
  EXPECT_THROW(ingest::IngestSession{maximal}, InvalidArgument);

  ingest::IngestConfig heuristic;
  heuristic.graph.prefilter.enabled = true;
  EXPECT_THROW(ingest::IngestSession{heuristic}, InvalidArgument);

  ingest::IngestConfig device_without_context;
  device_without_context.engine = ingest::ClusterEngine::Device;
  EXPECT_THROW(ingest::IngestSession{device_without_context},
               InvalidArgument);
}

TEST(IngestSession, EmptyBatchIsANoOp) {
  ingest::IngestConfig config;
  config.shingling = test_params();
  ingest::IngestSession session(config);
  session.ingest(make_workload(76, 2));
  const u64 digest = session.partition_digest();
  const ingest::IngestBatchStats stats = session.ingest({});
  EXPECT_EQ(stats.num_new_sequences, 0u);
  EXPECT_EQ(session.partition_digest(), digest);

  // Through the delta path an empty batch is a link that carries every
  // family and adds nothing.
  const store::FamilyStore before = session.store();
  const store::SnapshotDelta delta = session.ingest_with_delta({}, 1);
  EXPECT_EQ(delta.num_new_sequences(), 0u);
  EXPECT_TRUE(delta.retired.empty());
  EXPECT_EQ(store::apply_snapshot_delta(before, delta), before);
}

}  // namespace
}  // namespace gpclust
