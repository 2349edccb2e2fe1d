// Chaos-tier fault schedules for the streaming-ingest subsystem (ctest
// label: chaos). Randomized device fault plans — injected into both the
// device shingling engine and the DeviceBatched verify cascade of an
// IngestSession — must leave every batch in exactly one of two states:
//   (a) it completes, bit-identical to the fault-free serial reference
//       over the same batch split, or
//   (b) it throws a typed error (DeviceError family), after which the
//       session still holds its pre-batch state (strong guarantee) and
//       the delta chain written so far is loadable with a tip equal to
//       the session's surviving store — a partial batch never corrupts
//       the base or an already-written link.
// In both states the device arena is empty. Fallback mode must always
// land in (a). Deterministic oom@alloc / xfer_fail@h2d schedules and a
// kill mid-delta-write round out the randomized sweep.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/serial_pclust.hpp"
#include "device/device_context.hpp"
#include "fault/fault_plan.hpp"
#include "ingest/ingest_session.hpp"
#include "seq/family_model.hpp"
#include "store/delta.hpp"
#include "store/snapshot.hpp"
#include "util/rng.hpp"

namespace gpclust {
namespace {

core::ShinglingParams chaos_params() {
  core::ShinglingParams params;
  params.c1 = 20;
  params.c2 = 10;
  return params;
}

seq::SequenceSet chaos_workload() {
  seq::FamilyModelConfig config;
  config.num_families = 4;
  config.min_members = 3;
  config.max_members = 7;
  config.substitution_rate = 0.08;
  config.num_background_orfs = 4;
  config.seed = 6706;
  return seq::generate_metagenome(config).sequences;
}

std::vector<seq::SequenceSet> three_batches(const seq::SequenceSet& all) {
  const std::size_t n = all.size();
  const std::size_t third = n / 3;
  std::vector<seq::SequenceSet> batches;
  batches.emplace_back(all.begin(), all.begin() + third);
  batches.emplace_back(all.begin() + third, all.begin() + 2 * third);
  batches.emplace_back(all.begin() + 2 * third, all.end());
  return batches;
}

ingest::IngestConfig serial_config() {
  ingest::IngestConfig config;
  config.shingling = chaos_params();
  return config;
}

ingest::IngestConfig device_config(device::DeviceContext& ctx) {
  ingest::IngestConfig config = serial_config();
  config.engine = ingest::ClusterEngine::Device;
  config.device = &ctx;
  config.graph.verify_backend = align::VerifyBackend::DeviceBatched;
  config.graph.device_verify.context = &ctx;
  return config;
}

/// Fault-free serial replay of the same batch split: the per-batch digest
/// reference every faulted run is held to.
std::vector<u64> reference_digests(
    const std::vector<seq::SequenceSet>& batches,
    const ingest::IngestConfig& config = serial_config()) {
  ingest::IngestSession session(config);
  std::vector<u64> digests;
  for (const auto& batch : batches) {
    session.ingest(batch);
    digests.push_back(session.partition_digest());
  }
  return digests;
}

/// Same random schedule shape as the pipeline chaos sweep
/// (tests/integration/chaos_test.cpp): a handful of point faults plus an
/// occasional persistent burst.
fault::FaultPlan random_device_plan(u64 seed) {
  util::SplitMix64 rng(seed);
  fault::FaultPlan plan;
  const fault::FaultSite sites[] = {
      fault::FaultSite::Alloc, fault::FaultSite::H2D, fault::FaultSite::D2H,
      fault::FaultSite::Kernel};
  const std::size_t num_faults = 1 + rng.next() % 4;
  for (std::size_t i = 0; i < num_faults; ++i) {
    const auto site = sites[rng.next() % 4];
    const u64 index = rng.next() % 96;
    if (rng.next() % 4 == 0) {
      plan.add_range(site, index, index + rng.next() % 64);
    } else {
      plan.add(site, index);
    }
  }
  if (rng.next() % 5 == 0) {
    plan.add_range(fault::FaultSite::Kernel, 16 + rng.next() % 32, 1u << 20);
  }
  return plan;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void remove_chain_files(const std::string& base_path) {
  std::filesystem::remove(base_path);
  std::filesystem::remove(store::delta_chain_path(base_path, 1));
  std::filesystem::remove(store::delta_chain_path(base_path, 2));
}

class IngestChaosSchedule : public ::testing::TestWithParam<int> {};

TEST_P(IngestChaosSchedule, BatchesCompleteIdenticallyOrFailTyped) {
  const seq::SequenceSet all = chaos_workload();
  const std::vector<seq::SequenceSet> batches = three_batches(all);
  const std::vector<u64> expected = reference_digests(batches);

  const u64 seed = 0x1C4E57ULL * 1000003ULL + static_cast<u64>(GetParam());
  for (const auto mode :
       {fault::ResilienceMode::Off, fault::ResilienceMode::Retry,
        fault::ResilienceMode::Fallback}) {
    auto plan = random_device_plan(seed);
    device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
    // Expose every stage: the context plan feeds the arena and the
    // DeviceBatched verify pipeline; the engine plan feeds GpClust (which
    // scopes the context plan to its own during cluster()).
    ctx.set_fault_plan(&plan);
    ingest::IngestConfig config = device_config(ctx);
    config.device_options.fault_plan = &plan;
    config.device_options.resilience.mode = mode;
    config.graph.device_verify.resilience.mode = mode;

    const std::string label =
        "seed=" + std::to_string(seed) + " mode=" +
        std::string(fault::resilience_mode_name(mode)) + " plan=\"" +
        plan.to_string() + "\"";
    const std::string base_path = temp_path(
        "gpclust_ingest_chaos_" + std::to_string(GetParam()) + "_" +
        std::string(fault::resilience_mode_name(mode)) + ".gpfi");
    remove_chain_files(base_path);

    ingest::IngestSession session(config);
    u64 last_digest = session.partition_digest();
    std::size_t completed = 0;
    bool failed_typed = false;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      try {
        if (b == 0) {
          // The base of the chain: the first batch's snapshot.
          session.ingest(batches[b]);
          store::write_snapshot(session.store(), base_path);
        } else {
          const store::SnapshotDelta delta =
              session.ingest_with_delta(batches[b], static_cast<u64>(b));
          store::write_delta(delta,
                             store::delta_chain_path(base_path,
                                                     static_cast<u64>(b)));
        }
        // Outcome (a): bit-identical to the fault-free serial reference.
        EXPECT_EQ(session.partition_digest(), expected[b])
            << label << " batch=" << b;
        last_digest = session.partition_digest();
        ++completed;
      } catch (const DeviceError&) {
        // Outcome (b): typed failure, legal in Off and Retry only. The
        // strong guarantee: the session still holds its pre-batch state.
        EXPECT_NE(mode, fault::ResilienceMode::Fallback)
            << label << " batch=" << b;
        EXPECT_EQ(session.partition_digest(), last_digest)
            << label << " batch=" << b;
        failed_typed = true;
      }
      // Arena hygiene after every batch, success or failure.
      EXPECT_EQ(ctx.arena().used(), 0u) << label << " batch=" << b;
      EXPECT_EQ(ctx.arena().num_allocations(), 0u) << label << " batch=" << b;
      if (failed_typed) break;
    }
    if (mode == fault::ResilienceMode::Fallback) {
      EXPECT_EQ(completed, batches.size()) << label;
    }
    // Whatever was written before the failure must still be a loadable
    // chain whose tip is the session's surviving state — a mid-batch
    // fault never leaves a corrupt base or link behind.
    if (completed > 0) {
      const store::DeltaChainTip tip = store::follow_delta_chain(base_path);
      EXPECT_EQ(tip.chain_length, static_cast<u64>(completed - 1)) << label;
      EXPECT_EQ(store::serialize_snapshot(tip.store),
                store::serialize_snapshot(session.store()))
          << label;
    }
    remove_chain_files(base_path);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, IngestChaosSchedule,
                         ::testing::Range(0, 12));

TEST(IngestChaosDeterministic, TransferFaultInVerifyLeavesSessionUsable) {
  // xfer_fail@h2d, resilience off, injected ONLY through the context plan
  // — GpClust scopes the context plan to its own (unset) plan during
  // cluster(), so the fault lands in the DeviceBatched verify stage. The
  // batch must fail typed, roll back, and succeed on a fault-free retry.
  // This workload's homologs are close enough that the seed-diagonal
  // floor accepts every surviving pair without a DP; an identity gate
  // turns that tier off, so each surviving pair is scored on the device.
  const seq::SequenceSet all = chaos_workload();
  const std::vector<seq::SequenceSet> batches = three_batches(all);
  ingest::IngestConfig reference = serial_config();
  reference.graph.min_identity = 0.3;
  const std::vector<u64> expected = reference_digests(batches, reference);

  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  ingest::IngestConfig config = device_config(ctx);
  config.graph.min_identity = reference.graph.min_identity;
  ingest::IngestSession session(config);
  session.ingest(batches[0]);
  ASSERT_EQ(session.partition_digest(), expected[0]);
  const u64 pre_batch = session.partition_digest();

  fault::FaultPlan plan;
  plan.add_range(fault::FaultSite::H2D, 0, 1u << 20);
  ctx.set_fault_plan(&plan);
  EXPECT_THROW(session.ingest(batches[1]), DeviceError);
  EXPECT_EQ(session.partition_digest(), pre_batch);
  EXPECT_EQ(session.num_sequences(), batches[0].size());
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);

  // The session is still usable: clear the plan and replay the batch.
  ctx.set_fault_plan(nullptr);
  session.ingest(batches[1]);
  EXPECT_EQ(session.partition_digest(), expected[1]);
  session.ingest(batches[2]);
  EXPECT_EQ(session.partition_digest(), expected[2]);
  EXPECT_EQ(ctx.arena().used(), 0u);
}

TEST(IngestChaosDeterministic, AllocFaultInShinglingLeavesSessionUsable) {
  // oom@alloc, resilience off, injected through the engine plan so the
  // device shingling stage hits it. Same contract: typed failure, strong
  // guarantee, fault-free replay succeeds.
  const seq::SequenceSet all = chaos_workload();
  const std::vector<seq::SequenceSet> batches = three_batches(all);
  const std::vector<u64> expected = reference_digests(batches);

  device::DeviceContext ctx(device::DeviceSpec::small_test_device(8 << 20));
  fault::FaultPlan plan;
  plan.add_range(fault::FaultSite::Alloc, 0, 1u << 20);
  ingest::IngestConfig config = device_config(ctx);
  config.device_options.fault_plan = &plan;
  ingest::IngestSession session(config);

  EXPECT_THROW(session.ingest(batches[0]), DeviceError);
  EXPECT_EQ(session.num_sequences(), 0u);
  EXPECT_EQ(ctx.arena().used(), 0u);
  EXPECT_EQ(ctx.arena().num_allocations(), 0u);

  config.device_options.fault_plan = nullptr;
  ingest::IngestSession retry(config);
  retry.ingest(batches[0]);
  EXPECT_EQ(retry.partition_digest(), expected[0]);
  EXPECT_EQ(ctx.arena().used(), 0u);
}

TEST(IngestChaosDeterministic, KillMidDeltaWriteLeavesChainLoadable) {
  // A kill while writing link 2 leaves a truncated file: following the
  // chain is typed corruption, never a wrong answer; removing the partial
  // link recovers the intact prefix; the base is untouched throughout.
  const seq::SequenceSet all = chaos_workload();
  const std::vector<seq::SequenceSet> batches = three_batches(all);

  const std::string base_path = temp_path("gpclust_ingest_chaos_kill.gpfi");
  remove_chain_files(base_path);

  ingest::IngestSession chain(serial_config());
  chain.ingest(batches[0]);
  store::write_snapshot(chain.store(), base_path);
  const std::vector<char> base_bytes =
      store::serialize_snapshot(chain.store());
  store::write_delta(chain.ingest_with_delta(batches[1], 1, nullptr),
                     store::delta_chain_path(base_path, 1));
  const std::vector<char> prefix_bytes =
      store::serialize_snapshot(chain.store());
  store::write_delta(chain.ingest_with_delta(batches[2], 2, nullptr),
                     store::delta_chain_path(base_path, 2));

  // Truncate link 2 at half its length: the kill point.
  const std::string link2 = store::delta_chain_path(base_path, 2);
  std::vector<char> link2_bytes;
  {
    std::ifstream in(link2, std::ios::binary);
    ASSERT_TRUE(in.good());
    link2_bytes.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(link2, std::ios::binary | std::ios::trunc);
    out.write(link2_bytes.data(),
              static_cast<std::streamsize>(link2_bytes.size() / 2));
  }
  EXPECT_THROW(store::follow_delta_chain(base_path), store::SnapshotError);

  // Removing the partial link recovers the prefix; the base is untouched.
  std::filesystem::remove(link2);
  const store::DeltaChainTip prefix = store::follow_delta_chain(base_path);
  EXPECT_EQ(prefix.chain_length, 1u);
  EXPECT_EQ(store::serialize_snapshot(prefix.store), prefix_bytes);
  EXPECT_EQ(store::serialize_snapshot(store::load_snapshot(base_path)),
            base_bytes);

  // Re-writing the link intact completes the chain to the session's tip.
  {
    std::ofstream out(link2, std::ios::binary | std::ios::trunc);
    out.write(link2_bytes.data(),
              static_cast<std::streamsize>(link2_bytes.size()));
  }
  const store::DeltaChainTip tip = store::follow_delta_chain(base_path);
  EXPECT_EQ(tip.chain_length, 2u);
  EXPECT_EQ(store::serialize_snapshot(tip.store),
            store::serialize_snapshot(chain.store()));
  remove_chain_files(base_path);
}

}  // namespace
}  // namespace gpclust
