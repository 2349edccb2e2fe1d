// Verify-cascade test wall (ctest label: chaos — runs under the ASan
// preset in tools/ci.sh tier 3). Three layers lock the device-batched
// verification backend to the host reference:
//
//   1. identity — the homology graph's CSR digest is bit-identical across
//      HostScalar / HostSimd / DeviceBatched for every batch-size x
//      stream-count combination (and with the identity-traceback gate on);
//   2. fuzz — 10k random pair tasks: the batched score-only kernel body
//      agrees exactly with both the scalar reference and the striped SIMD
//      kernel, scores and scan-order end cells;
//   3. chaos — deterministic oom@alloc / xfer_fail@h2d schedules plus
//      seeded random plans: every run either completes bit-identically or
//      throws a typed DeviceError, Fallback mode always completes
//      (bit-identical CPU fallback), and the arena is empty afterwards.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "align/homology_graph.hpp"
#include "align/simd.hpp"
#include "align/smith_waterman.hpp"
#include "align/verify_pipeline.hpp"
#include "device/device_context.hpp"
#include "fault/fault_plan.hpp"
#include "seq/alphabet.hpp"
#include "seq/family_model.hpp"
#include "util/rng.hpp"

namespace gpclust::align {
namespace {

seq::SequenceSet verify_workload(u64 seed = 7100) {
  seq::FamilyModelConfig cfg;
  cfg.num_families = 8;
  cfg.min_members = 3;
  cfg.max_members = 7;
  cfg.substitution_rate = 0.12;
  cfg.indel_rate = 0.02;
  cfg.num_background_orfs = 16;
  cfg.seed = seed;
  return seq::generate_metagenome(cfg).sequences;
}

HomologyGraphConfig base_config() {
  HomologyGraphConfig cfg;
  cfg.num_threads = 1;
  return cfg;
}

/// Builds with the given backend config and returns the graph digest,
/// asserting the counter-attribution invariant on the way out.
u64 build_digest(const seq::SequenceSet& sequences, HomologyGraphConfig cfg,
                 HomologyGraphStats* stats_out = nullptr) {
  HomologyGraphStats stats;
  const auto graph = build_homology_graph(sequences, cfg, &stats);
  EXPECT_EQ(stats.num_score_alignments, stats.num_surviving_pairs)
      << "every backend scores each surviving pair exactly once";
  if (stats_out != nullptr) *stats_out = stats;
  return graph.digest();
}

// --- layer 1: backend identity -------------------------------------------

TEST(VerifyPipelineIdentity, DigestIdenticalAcrossBackendsBatchesAndStreams) {
  const auto sequences = verify_workload();

  auto scalar_cfg = base_config();
  scalar_cfg.verify_backend = VerifyBackend::HostScalar;
  const u64 expected = build_digest(sequences, scalar_cfg);

  auto simd_cfg = base_config();
  simd_cfg.verify_backend = VerifyBackend::HostSimd;
  EXPECT_EQ(build_digest(sequences, simd_cfg), expected);

  for (const std::size_t batch_pairs : {std::size_t{0},  // auto from arena
                                        std::size_t{3}, std::size_t{17}}) {
    for (const std::size_t streams :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
      auto cfg = base_config();
      cfg.verify_backend = VerifyBackend::DeviceBatched;
      cfg.device_verify.context = &ctx;
      cfg.device_verify.max_batch_pairs = batch_pairs;
      cfg.device_verify.num_streams = streams;
      HomologyGraphStats stats;
      const std::string label = "batch_pairs=" + std::to_string(batch_pairs) +
                                " streams=" + std::to_string(streams);
      EXPECT_EQ(build_digest(sequences, cfg, &stats), expected) << label;
      EXPECT_EQ(stats.device.num_lanes, streams / 2 + streams % 2) << label;
      if (batch_pairs == 3) {
        EXPECT_GT(stats.device.num_batches, 1u) << label;
      }
      EXPECT_EQ(ctx.arena().used(), 0u) << label;
      EXPECT_EQ(ctx.arena().num_allocations(), 0u) << label;
      EXPECT_GT(stats.device.makespan_modeled_s, 0.0) << label;
      // The exposed critical-path split is a partition of the makespan.
      EXPECT_NEAR(stats.device.kernel_exposed_modeled_s +
                      stats.device.h2d_exposed_modeled_s +
                      stats.device.d2h_exposed_modeled_s,
                  stats.device.makespan_modeled_s, 1e-12)
          << label;
    }
  }
}

TEST(VerifyPipelineIdentity, ZeroStreamsAreRejected) {
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  auto cfg = base_config();
  cfg.verify_backend = VerifyBackend::DeviceBatched;
  cfg.device_verify.context = &ctx;
  cfg.device_verify.num_streams = 0;
  EXPECT_THROW(build_homology_graph(verify_workload(), cfg), InvalidArgument);
  EXPECT_EQ(ctx.arena().used(), 0u);
}

TEST(VerifyPipelineIdentity, DigestIdenticalWithIdentityTracebackGate) {
  const auto sequences = verify_workload(7200);

  auto scalar_cfg = base_config();
  scalar_cfg.verify_backend = VerifyBackend::HostScalar;
  scalar_cfg.min_identity = 0.3;
  HomologyGraphStats scalar_stats;
  const u64 expected = build_digest(sequences, scalar_cfg, &scalar_stats);
  ASSERT_GT(scalar_stats.num_traced_alignments, 0u);

  device::DeviceContext ctx(device::DeviceSpec::small_test_device(4 << 20));
  auto cfg = base_config();
  cfg.verify_backend = VerifyBackend::DeviceBatched;
  cfg.device_verify.context = &ctx;
  cfg.device_verify.num_streams = 2;
  cfg.min_identity = 0.3;
  HomologyGraphStats stats;
  EXPECT_EQ(build_digest(sequences, cfg, &stats), expected);
  // The traced gate resumes from the kernel's end cells, so the traceback
  // count must match the scalar reference's too.
  EXPECT_EQ(stats.num_traced_alignments, scalar_stats.num_traced_alignments);
  EXPECT_EQ(ctx.arena().used(), 0u);
}

// --- layer 2: kernel-body fuzz -------------------------------------------

std::string random_protein(util::Xoshiro256& rng, std::size_t len) {
  std::string s(len, 'A');
  for (auto& c : s) {
    c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
  }
  return s;
}

TEST(VerifyPipelineFuzz, BatchedScoresMatchSimdAndScalarOn10kPairs) {
  util::Xoshiro256 rng(41000);
  constexpr std::size_t kPairs = 10000;
  constexpr std::size_t kBatch = 128;  // pairs per packed batch

  std::size_t checked = 0;
  std::vector<std::string> a_seqs, b_seqs;
  std::vector<char> residues;
  std::vector<PairTask> tasks;
  const AlignmentParams params;

  auto flush = [&] {
    std::vector<PairScore> out(tasks.size());
    score_pairs_batch(residues, tasks, out, params);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto& a = a_seqs[i];
      const auto& b = b_seqs[i];
      const AlignmentResult scalar = smith_waterman(a, b, params);
      const AlignmentResult simd = smith_waterman_simd(a, b, params);
      ASSERT_EQ(out[i].score, scalar.score) << "a=" << a << " b=" << b;
      ASSERT_EQ(out[i].score, simd.score) << "a=" << a << " b=" << b;
      // The batched body IS the scalar DP, so scan-order end cells match
      // exactly (SIMD guarantees only a co-optimal end, not this one).
      ASSERT_EQ(out[i].a_end, scalar.a_end) << "a=" << a << " b=" << b;
      ASSERT_EQ(out[i].b_end, scalar.b_end) << "a=" << a << " b=" << b;
      // Singleton-task scoring must agree with the batched pass.
      const PairScore solo = score_pair_task(residues, tasks[i], params);
      ASSERT_EQ(solo.score, out[i].score);
      ASSERT_EQ(solo.a_end, out[i].a_end);
      ASSERT_EQ(solo.b_end, out[i].b_end);
      ++checked;
    }
    a_seqs.clear();
    b_seqs.clear();
    residues.clear();
    tasks.clear();
  };

  for (std::size_t iter = 0; iter < kPairs; ++iter) {
    // Mostly short metagenomic-ORF lengths with an empty/one-residue slice.
    const std::size_t la =
        iter % 97 == 0 ? rng.next_below(2) : rng.next_below(80);
    const std::size_t lb =
        iter % 97 == 1 ? rng.next_below(2) : rng.next_below(80);
    std::string a = random_protein(rng, la);
    std::string b = random_protein(rng, lb);
    PairTask task;
    task.a_begin = static_cast<u32>(residues.size());
    task.a_len = static_cast<u32>(a.size());
    residues.insert(residues.end(), a.begin(), a.end());
    task.b_begin = static_cast<u32>(residues.size());
    task.b_len = static_cast<u32>(b.size());
    residues.insert(residues.end(), b.begin(), b.end());
    tasks.push_back(task);
    a_seqs.push_back(std::move(a));
    b_seqs.push_back(std::move(b));
    if (tasks.size() == kBatch) flush();
  }
  flush();
  EXPECT_EQ(checked, kPairs);
}

// --- layer 3: chaos -------------------------------------------------------

/// Runs the device backend under `plan` in Fallback mode and checks the
/// bit-identical-completion + empty-arena property.
void expect_fallback_identical(const seq::SequenceSet& sequences, u64 expected,
                               fault::FaultPlan plan,
                               const std::string& label) {
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(1 << 20));
  ctx.set_fault_plan(&plan);
  auto cfg = base_config();
  cfg.verify_backend = VerifyBackend::DeviceBatched;
  cfg.device_verify.context = &ctx;
  cfg.device_verify.max_batch_pairs = 8;
  cfg.device_verify.num_streams = 2;
  cfg.device_verify.resilience.mode = fault::ResilienceMode::Fallback;
  HomologyGraphStats stats;
  EXPECT_EQ(build_digest(sequences, cfg, &stats), expected) << label;
  EXPECT_GT(plan.injected(), 0u) << label << " (schedule never fired)";
  EXPECT_EQ(ctx.arena().used(), 0u) << label;
  EXPECT_EQ(ctx.arena().num_allocations(), 0u) << label;
}

TEST(VerifyPipelineChaos, DeterministicSchedulesFallBackBitIdentically) {
  const auto sequences = verify_workload(7300);
  auto scalar_cfg = base_config();
  scalar_cfg.verify_backend = VerifyBackend::HostScalar;
  const u64 expected = build_digest(sequences, scalar_cfg);

  for (const char* spec :
       {"oom@alloc:0", "oom@alloc:4", "oom@alloc:2-1048576",
        "xfer_fail@h2d:0", "xfer_fail@h2d:3", "xfer_fail@h2d:1-1048576",
        "xfer_fail@d2h:1", "kernel_fail@kernel:2-1048576"}) {
    expect_fallback_identical(sequences, expected, fault::FaultPlan::parse(spec),
                              spec);
  }
}

TEST(VerifyPipelineChaos, PersistentFaultsForceCpuFallbackCompletion) {
  const auto sequences = verify_workload(7300);
  auto scalar_cfg = base_config();
  scalar_cfg.verify_backend = VerifyBackend::HostScalar;
  const u64 expected = build_digest(sequences, scalar_cfg);

  auto plan = fault::FaultPlan::parse("kernel_fail@kernel:0-1048576");
  device::DeviceContext ctx(device::DeviceSpec::small_test_device(1 << 20));
  ctx.set_fault_plan(&plan);
  auto cfg = base_config();
  cfg.verify_backend = VerifyBackend::DeviceBatched;
  cfg.device_verify.context = &ctx;
  cfg.device_verify.num_streams = 2;
  cfg.device_verify.resilience.mode = fault::ResilienceMode::Fallback;
  HomologyGraphStats stats;
  EXPECT_EQ(build_digest(sequences, cfg, &stats), expected);
  EXPECT_TRUE(stats.device.cpu_fallback);
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);
}

struct PinnedVerify {
  std::size_t streams;
  std::size_t batch_pairs;
  const char* plan;
  fault::ResilienceMode mode;
  std::size_t batches, lanes, retries, replans, drains;
  bool cpu_fallback;
  double makespan, kernel_exposed, h2d_exposed, d2h_exposed;
  std::size_t arena_peak;
};

TEST(VerifyPipelinePins, ModeledTimelineAndLadderMatchPinnedValues) {
  // The modeled makespan, its exposed split, the arena peak and every
  // recovery counter of the device verify pass, one row per rung of the
  // fault ladder: a transient retry, an OOM replan, a drain followed by a
  // same-size retry, and the CPU fallback. Recorded before the verify
  // and shingling passes shared one batch pipeline; the exposed columns of
  // the multi-stream rows were re-recorded when SimTimeline::exposed
  // stopped depending on enqueue order.
  using Mode = fault::ResilienceMode;
  const PinnedVerify pins[] = {
      {1, 8, "", Mode::Off, 10, 1, 0, 0, 0, false, 0x1.f0f677c101bd8p-8,
       0x1.872e87fdbad66p-8, 0x1.21b155a2f4b7p-10, 0x1.0adcd2d44dcafp-11,
       1756},
      {4, 8, "", Mode::Off, 10, 2, 0, 0, 0, false, 0x1.91d1792eeafa1p-8,
       0x1.872e87fdbad65p-8, 0x1.d582a8e73f69ep-14, 0x1.a67346c99308p-15,
       3026},
      {2, 8, "kernel_fail@kernel:2,xfer_fail@d2h:4", Mode::Retry, 10, 1, 2, 0,
       0, false, 0x1.14d5c31e2aebep-7, 0x1.cef658f372643p-8,
       0x1.5da11aed41362p-10, 0x1.a67346c993p-15, 1756},
      {1, 8, "oom@alloc:4", Mode::Retry, 18, 1, 0, 1, 0, false,
       0x1.255bda1b69e9p-7, 0x1.8c6cb55ff3b09p-8, 0x1.0571032274499p-9,
       0x1.dc93ea2d2fe57p-11, 1290},
      {4, 8, "oom@alloc:4", Mode::Retry, 10, 2, 0, 0, 1, false,
       0x1.91d1792eeafa1p-8, 0x1.872e87fdbad65p-8, 0x1.d582a8e73f69ep-14,
       0x1.a67346c99308p-15, 3026},
      {2, 8, "kernel_fail@kernel:3-99999", Mode::Fallback, 3, 1, 6, 0, 0, true,
       0x1.24f263f1524e6p-8, 0x1.a84525707453cp-9, 0x1.433f44e460921p-10,
       0x0p+0, 1756},
  };
  const auto sequences = verify_workload(7300);
  auto scalar_cfg = base_config();
  scalar_cfg.verify_backend = VerifyBackend::HostScalar;
  const u64 expected = build_digest(sequences, scalar_cfg);
  for (const PinnedVerify& pin : pins) {
    SCOPED_TRACE(std::string("streams=") + std::to_string(pin.streams) +
                 " plan=" + pin.plan);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(1 << 20));
    fault::FaultPlan plan = fault::FaultPlan::parse(pin.plan);
    ctx.set_fault_plan(&plan);
    auto cfg = base_config();
    cfg.verify_backend = VerifyBackend::DeviceBatched;
    cfg.device_verify.context = &ctx;
    cfg.device_verify.max_batch_pairs = pin.batch_pairs;
    cfg.device_verify.num_streams = pin.streams;
    cfg.device_verify.resilience.mode = pin.mode;
    HomologyGraphStats stats;
    EXPECT_EQ(build_digest(sequences, cfg, &stats), expected);
    const VerifyDeviceStats& d = stats.device;
    EXPECT_EQ(d.num_batches, pin.batches);
    EXPECT_EQ(d.num_lanes, pin.lanes);
    EXPECT_EQ(d.num_retries, pin.retries);
    EXPECT_EQ(d.num_batch_replans, pin.replans);
    EXPECT_EQ(d.num_pipeline_drains, pin.drains);
    EXPECT_EQ(d.cpu_fallback, pin.cpu_fallback);
    EXPECT_DOUBLE_EQ(d.makespan_modeled_s, pin.makespan);
    EXPECT_DOUBLE_EQ(d.kernel_exposed_modeled_s, pin.kernel_exposed);
    EXPECT_DOUBLE_EQ(d.h2d_exposed_modeled_s, pin.h2d_exposed);
    EXPECT_DOUBLE_EQ(d.d2h_exposed_modeled_s, pin.d2h_exposed);
    EXPECT_EQ(ctx.arena().peak(), pin.arena_peak);
    EXPECT_EQ(ctx.arena().used(), 0u);
  }
}

/// A random device-side schedule over the sites the verify path exercises
/// (same shape as the shingling chaos suite).
fault::FaultPlan random_device_plan(u64 seed) {
  util::SplitMix64 rng(seed);
  fault::FaultPlan plan;
  const fault::FaultSite sites[] = {
      fault::FaultSite::Alloc, fault::FaultSite::H2D, fault::FaultSite::D2H,
      fault::FaultSite::Kernel};
  const std::size_t num_faults = 1 + rng.next() % 4;
  for (std::size_t i = 0; i < num_faults; ++i) {
    const auto site = sites[rng.next() % 4];
    const u64 index = rng.next() % 64;
    if (rng.next() % 4 == 0) {
      plan.add_range(site, index, index + rng.next() % 48);
    } else {
      plan.add(site, index);
    }
  }
  if (rng.next() % 5 == 0) {
    plan.add_range(fault::FaultSite::Kernel, 8 + rng.next() % 16, 1u << 20);
  }
  return plan;
}

class VerifyChaosSchedule : public ::testing::TestWithParam<int> {};

TEST_P(VerifyChaosSchedule, CompletesIdenticallyOrFailsTyped) {
  static const seq::SequenceSet sequences = verify_workload(7400);
  auto scalar_cfg = base_config();
  scalar_cfg.verify_backend = VerifyBackend::HostScalar;
  static const u64 expected = build_digest(sequences, scalar_cfg);

  const u64 seed = 0x5EA1ULL * 1000003ULL + static_cast<u64>(GetParam());
  util::SplitMix64 knob_rng(seed ^ 0x5eedULL);

  for (const auto mode :
       {fault::ResilienceMode::Off, fault::ResilienceMode::Retry,
        fault::ResilienceMode::Fallback}) {
    auto plan = random_device_plan(seed);
    const std::string label = "seed=" + std::to_string(seed) + " mode=" +
                              std::string(fault::resilience_mode_name(mode)) +
                              " plan=\"" + plan.to_string() + "\"";
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(1 << 20));
    ctx.set_fault_plan(&plan);
    auto cfg = base_config();
    cfg.verify_backend = VerifyBackend::DeviceBatched;
    cfg.device_verify.context = &ctx;
    cfg.device_verify.max_batch_pairs = 4 + knob_rng.next() % 28;
    cfg.device_verify.num_streams = 1 + knob_rng.next() % 4;
    cfg.device_verify.resilience.mode = mode;

    bool completed = false;
    try {
      HomologyGraphStats stats;
      EXPECT_EQ(build_digest(sequences, cfg, &stats), expected) << label;
      completed = true;
    } catch (const DeviceError&) {
      // Typed device failure — legal in Off and Retry only.
      EXPECT_NE(mode, fault::ResilienceMode::Fallback) << label;
    }
    // Any other exception type escapes and fails the harness: that is the
    // "never a third outcome" half of the property.
    if (mode == fault::ResilienceMode::Fallback) {
      EXPECT_TRUE(completed) << label;
    }
    EXPECT_EQ(ctx.arena().used(), 0u) << label;
    EXPECT_EQ(ctx.arena().num_allocations(), 0u) << label;
  }
}

INSTANTIATE_TEST_SUITE_P(ThirtySeeds, VerifyChaosSchedule,
                         ::testing::Range(0, 30));

TEST(VerifyPipelineChaos, MinHashSeedsSurviveDeviceFaultsBitIdentically) {
  // The LSH candidate stream feeds the same verify cascade; a device
  // fault schedule under Fallback must still land on the host MinHash
  // digest — the seed mode changes which pairs are verified, never how
  // faults resolve — and the arena must drain.
  const auto sequences = verify_workload(7500);
  auto host_cfg = base_config();
  host_cfg.seed_mode = SeedMode::MinHashLsh;
  host_cfg.verify_backend = VerifyBackend::HostScalar;
  const u64 expected = build_digest(sequences, host_cfg);

  for (const char* spec :
       {"oom@alloc:1", "xfer_fail@h2d:0", "kernel_fail@kernel:0-1048576"}) {
    auto plan = fault::FaultPlan::parse(spec);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(1 << 20));
    ctx.set_fault_plan(&plan);
    auto cfg = base_config();
    cfg.seed_mode = SeedMode::MinHashLsh;
    cfg.verify_backend = VerifyBackend::DeviceBatched;
    cfg.device_verify.context = &ctx;
    cfg.device_verify.num_streams = 2;
    cfg.device_verify.resilience.mode = fault::ResilienceMode::Fallback;
    HomologyGraphStats stats;
    EXPECT_EQ(build_digest(sequences, cfg, &stats), expected) << spec;
    EXPECT_GT(plan.injected(), 0u) << spec;
    EXPECT_GT(stats.seed_peak_candidate_bytes, 0u) << spec;
    EXPECT_EQ(ctx.arena().used(), 0u) << spec;
    EXPECT_EQ(ctx.arena().num_allocations(), 0u) << spec;
  }
}

}  // namespace
}  // namespace gpclust::align
