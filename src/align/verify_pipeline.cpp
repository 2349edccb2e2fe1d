#include "align/verify_pipeline.hpp"

#include <algorithm>
#include <unordered_map>

#include "device/batch_pipeline.hpp"
#include "device/primitives.hpp"
#include "util/timer.hpp"

namespace gpclust::align {

namespace {

/// The per-pair body every verify path runs: the scalar reference DP's
/// score and scan-order end cell.
PairScore score_pair(std::string_view a, std::string_view b,
                     const AlignmentParams& params) {
  const AlignmentResult r = smith_waterman(a, b, params);
  PairScore out;
  out.score = r.score;
  out.a_end = static_cast<u32>(r.a_end);
  out.b_end = static_cast<u32>(r.b_end);
  return out;
}

/// The device buffers of the batch in flight on one pipeline lane — same
/// discipline as the shingling pass: they stay allocated until the lane is
/// reused or a fault drains the pipeline, so the arena accounts for every
/// batch the modeled schedule keeps co-resident.
struct LaneBuffers {
  device::DeviceVector<char> residues;
  device::DeviceVector<PairTask> tasks;
  device::DeviceVector<PairScore> scores;
};

/// Host-side staging of one batch: the deduplicated residue buffer plus
/// one task per pair. Reused across batches to avoid churn.
struct BatchStaging {
  std::vector<char> residues;
  std::vector<PairTask> tasks;
  std::unordered_map<u32, u32> offset_of;  ///< sequence id -> residue offset
  u64 total_cells = 0;

  void clear() {
    residues.clear();
    tasks.clear();
    offset_of.clear();
    total_cells = 0;
  }
};

/// Packs pairs[surviving[lo..hi)] into staging: each distinct sequence's
/// residues appear once, tasks reference them by offset.
void pack_batch(const seq::SequenceSet& sequences,
                std::span<const CandidatePair> pairs,
                std::span<const u32> surviving, std::size_t lo, std::size_t hi,
                BatchStaging& staging) {
  staging.clear();
  auto intern = [&](u32 id) -> u32 {
    auto [it, fresh] = staging.offset_of.try_emplace(
        id, static_cast<u32>(staging.residues.size()));
    if (fresh) {
      const std::string& r = sequences[id].residues;
      staging.residues.insert(staging.residues.end(), r.begin(), r.end());
    }
    return it->second;
  };
  staging.tasks.reserve(hi - lo);
  for (std::size_t k = lo; k < hi; ++k) {
    const CandidatePair& p = pairs[surviving[k]];
    PairTask task;
    task.a_begin = intern(p.a);
    task.a_len = static_cast<u32>(sequences[p.a].residues.size());
    task.b_begin = intern(p.b);
    task.b_len = static_cast<u32>(sequences[p.b].residues.size());
    staging.total_cells += task.cells();
    staging.tasks.push_back(task);
  }
}

/// Largest safe batch (in pairs) from free device memory: worst case every
/// pair uploads both sequences un-deduplicated, plus its task and score
/// slots; half the free memory, split across the co-resident lanes.
std::size_t default_batch_pairs(const device::DeviceContext& ctx,
                                const seq::SequenceSet& sequences,
                                std::size_t lanes) {
  std::size_t max_len = 1;
  for (const auto& s : sequences) max_len = std::max(max_len, s.length());
  const std::size_t per_pair =
      2 * max_len + sizeof(PairTask) + sizeof(PairScore);
  const std::size_t budget =
      ctx.arena().available() / (2 * std::max<std::size_t>(1, lanes));
  return std::max<std::size_t>(1, budget / per_pair);
}

/// Runs one batch on the device. Throws DeviceError/TransferError/
/// KernelError on any (injected or real) fault; nothing was committed and
/// the lane's RAII buffers are drained by the pipeline's recovery ladder.
void process_batch_device(device::DeviceContext& ctx,
                          const BatchStaging& staging,
                          const AlignmentParams& params,
                          const device::Lane& lane, LaneBuffers& bufs,
                          std::vector<PairScore>& host_scores) {
  bufs.residues = device::DeviceVector<char>(ctx, staging.residues.size());
  device::copy_to_device<char>(bufs.residues, staging.residues, lane.compute);
  bufs.tasks = device::DeviceVector<PairTask>(ctx, staging.tasks.size());
  device::copy_to_device<PairTask>(bufs.tasks, staging.tasks, lane.compute);
  bufs.scores = device::DeviceVector<PairScore>(ctx, staging.tasks.size());

  const std::span<const char> residues = bufs.residues.device_span();
  const double kernel_done = device::transform_weighted(
      bufs.tasks, bufs.scores,
      [residues, &params](const PairTask& t) {
        return score_pair_task(residues, t, params);
      },
      static_cast<std::size_t>(staging.total_cells), lane.compute);

  host_scores.resize(staging.tasks.size());
  device::copy_to_host<PairScore>(host_scores, bufs.scores, lane.copy,
                                  kernel_done);
}

}  // namespace

VerifyBackend parse_verify_backend(const std::string& name) {
  if (name == "scalar") return VerifyBackend::HostScalar;
  if (name == "simd") return VerifyBackend::HostSimd;
  if (name == "device") return VerifyBackend::DeviceBatched;
  throw InvalidArgument("unknown verify backend: " + name);
}

std::string_view verify_backend_name(VerifyBackend backend) {
  switch (backend) {
    case VerifyBackend::HostScalar: return "scalar";
    case VerifyBackend::HostSimd: return "simd";
    case VerifyBackend::DeviceBatched: return "device";
  }
  return "?";
}

PairScore score_pair_task(std::span<const char> residues, const PairTask& task,
                          const AlignmentParams& params) {
  return score_pair({residues.data() + task.a_begin, task.a_len},
                    {residues.data() + task.b_begin, task.b_len}, params);
}

void score_pairs_batch(std::span<const char> residues,
                       std::span<const PairTask> tasks,
                       std::span<PairScore> out,
                       const AlignmentParams& params) {
  GPCLUST_CHECK(out.size() >= tasks.size(), "output too small");
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    out[i] = score_pair_task(residues, tasks[i], params);
  }
}

std::vector<PairScore> device_score_pairs(device::DeviceContext& ctx,
                                          const seq::SequenceSet& sequences,
                                          std::span<const CandidatePair> pairs,
                                          std::span<const u32> surviving,
                                          const AlignmentParams& params,
                                          const DeviceVerifyOptions& options,
                                          obs::Tracer* tracer,
                                          VerifyDeviceStats* stats) {
  // Modeled ops are attributed through the context's own tracer, or the
  // host tracer when the context has none.
  const device::ScopedBinding binding(
      ctx, ctx.tracer() != nullptr ? ctx.tracer() : tracer, ctx.fault_plan());
  obs::DevicePhaseScope phase_scope(ctx.tracer(), "homology.verify");

  device::BatchPipeline pipeline(ctx, options.num_streams, options.resilience,
                                 tracer, "homology.verify");
  const std::size_t cap =
      options.max_batch_pairs > 0
          ? options.max_batch_pairs
          : default_batch_pairs(ctx, sequences, pipeline.num_lanes());

  // Snapshot the modeled timeline so the reported makespan / exposed split
  // is the delta this verify adds (the context may carry earlier phases).
  const double makespan0 = ctx.makespan();
  const double kernel0 = ctx.gpu_exposed_seconds();
  const double h2d0 = ctx.h2d_exposed_seconds();
  const double d2h0 = ctx.d2h_exposed_seconds();

  std::vector<PairScore> out(surviving.size());
  std::size_t done = 0;  // surviving pairs committed so far
  BatchStaging staging;
  std::vector<PairScore> host_scores;
  std::vector<LaneBuffers> lanes(pipeline.num_lanes());
  double pack_seconds = 0.0;

  device::BatchPass pass;
  pass.has_work = [&] { return done < surviving.size(); };
  // Each batch is sliced from the remainder as it runs: nothing to re-plan.
  pass.replan = [] {};
  pass.run_batch = [&](std::size_t batch_cap, const device::Lane& lane,
                       std::size_t slot) {
    const std::size_t hi = std::min(surviving.size(), done + batch_cap);
    {
      // CPU packs the batch for the device — the host side that feeds the
      // double-buffered lanes; measured, never mixed with modeled.
      obs::HostSpan span(tracer, "homology.verify.stage");
      util::WallTimer pack_timer;
      pack_batch(sequences, pairs, surviving, done, hi, staging);
      pack_seconds += pack_timer.seconds();
    }
    process_batch_device(ctx, staging, params, lane, lanes[slot], host_scores);
    std::copy(host_scores.begin(), host_scores.end(), out.begin() + done);
    done = hi;
  };
  pass.release_lane = [&](std::size_t slot) { lanes[slot] = LaneBuffers{}; };
  pass.finish_on_cpu = [&] {
    obs::HostSpan span(tracer, "homology.verify.cpu_fallback");
    for (; done < surviving.size(); ++done) {
      const CandidatePair& p = pairs[surviving[done]];
      out[done] = score_pair(sequences[p.a].residues, sequences[p.b].residues,
                             params);
    }
  };
  VerifyDeviceStats run_stats;
  pipeline.run(pass, cap, run_stats);

  run_stats.pack_host_s = pack_seconds;
  run_stats.makespan_modeled_s = ctx.makespan() - makespan0;
  run_stats.kernel_exposed_modeled_s = ctx.gpu_exposed_seconds() - kernel0;
  run_stats.h2d_exposed_modeled_s = ctx.h2d_exposed_seconds() - h2d0;
  run_stats.d2h_exposed_modeled_s = ctx.d2h_exposed_seconds() - d2h0;

  obs::add_counter(tracer, "verify_batches", run_stats.num_batches);
  if (stats != nullptr) *stats = run_stats;
  return out;
}

}  // namespace gpclust::align
