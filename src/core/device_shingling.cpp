#include "core/device_shingling.hpp"

#include <algorithm>
#include <unordered_map>

#include "core/shingle.hpp"
#include "device/batch_pipeline.hpp"
#include "device/primitives.hpp"
#include "obs/trace.hpp"

namespace gpclust::core {

namespace {

/// The device buffers of the batch in flight on one pipeline lane. They
/// outlive the batch's (synchronously executed) computation until the lane
/// is reused — or a fault drains the pipeline — so the arena accounts for
/// every batch the modeled schedule keeps co-resident, exactly like real
/// double-buffered staging would.
struct LaneBuffers {
  device::DeviceVector<u32> members;
  device::DeviceVector<u64> offsets;
  device::DeviceVector<u64> perm;
  device::DeviceVector<u64> minima[2];
};

/// Per-split-list accumulator: s minima per trial, merged piece by piece.
struct PendingList {
  std::vector<u64> minima;  // family.size() * s entries, kNoValue padded
};

using PendingMap = std::unordered_map<u32, PendingList>;

/// Below this many segments a batch's trial is consumed on the calling
/// thread: the pool dispatch would cost more than the hashing it splits.
constexpr std::size_t kMinParallelConsumeSegments = 4096;

/// A batch's uncommitted side effects. Batches are transactional under
/// resilience: all tuple appends and split-list merges land here first and
/// are applied to the committed state only after every device op of the
/// batch succeeded, so a faulted batch can be retried (or replanned at a
/// smaller size) without double-counting.
struct BatchEffects {
  ShingleTuples tuples;
  PendingMap updated;         ///< overlay over the committed pending map
  std::vector<u32> erased;    ///< lists completed (and removed) this batch
};

/// Applies a successful batch's split-list updates to the committed map;
/// its tuples are left in `fx` for the caller to land.
void commit_pending(BatchEffects& fx, PendingMap& pending) {
  for (u32 id : fx.erased) pending.erase(id);
  for (auto& [id, acc] : fx.updated) pending[id] = std::move(acc);
}

/// Appends a committed batch's tuples to the pass's result.
void append_tuples(ShingleTuples&& batch, ShingleTuples& tuples) {
  if (tuples.size() == 0) {
    tuples = std::move(batch);
    return;
  }
  tuples.shingle.insert(tuples.shingle.end(), batch.shingle.begin(),
                        batch.shingle.end());
  tuples.owner.insert(tuples.owner.end(), batch.owner.begin(),
                      batch.owner.end());
}

/// Shared consume step (identical for the device and CPU-fallback paths):
/// fold one segment's per-trial minima into the overlay. Returns the
/// tuple's shingle id when the segment completes its list for this trial,
/// kNoValue otherwise.
ShingleId consume_segment_minima(u32 list_id, bool starts, bool ends,
                                 u32 trial, u32 num_trials, u32 s,
                                 std::span<const u64> seg_minima,
                                 const PendingMap& committed,
                                 BatchEffects& fx) {
  if (starts && ends) {
    const ShingleId id = hash_shingle(trial, seg_minima);
    GPCLUST_CHECK(id != kNoValue, "complete list shorter than s");
    return id;
  }
  // Piece of a split list: accumulate across batches (via the overlay).
  auto it = fx.updated.find(list_id);
  if (it == fx.updated.end()) {
    auto cit = committed.find(list_id);
    if (cit != committed.end()) {
      it = fx.updated.emplace(list_id, cit->second).first;
    } else {
      PendingList fresh;
      fresh.minima.assign(static_cast<std::size_t>(num_trials) * s, kNoValue);
      it = fx.updated.emplace(list_id, std::move(fresh)).first;
    }
  }
  std::span<u64> acc{it->second.minima.data() + std::size_t{trial} * s, s};
  merge_minima(acc, seg_minima);
  if (!ends) return kNoValue;
  const ShingleId id = hash_shingle(trial, acc);
  GPCLUST_CHECK(id != kNoValue, "split list shorter than s");
  if (trial + 1 == num_trials) {
    fx.updated.erase(it);
    fx.erased.push_back(list_id);
  }
  return id;
}

/// Runs one batch on the device (Algorithm 1 over the batch's segments ×
/// the family's trials). Throws DeviceError/TransferError/KernelError on
/// any (injected or real) fault; in that case no state was committed and
/// the RAII DeviceVectors have already drained the arena.
///
/// Per trial the modeled device runs transform -> segmented_sort -> select
/// (the select kernel reads only each segment's front s). Each of the three
/// keeps its own fault point and modeled charge, in that order; the host
/// emulates all three as one fused scan (min_s_images per segment, the
/// same s-minima the serial and CPU-fallback paths compute) inside the
/// select kernel's launch, recorded as the "<phase>.emulate" host span.
BatchEffects process_batch_device(device::DeviceContext& ctx,
                                  const Batch& batch,
                                  std::span<const u32> members,
                                  const HashFamily& family, u32 s,
                                  util::MetricsRegistry& reg,
                                  const std::string& cpu_metric,
                                  obs::Tracer* tracer,
                                  const std::string& trace_phase,
                                  const PendingMap& committed,
                                  const device::Lane& lane, LaneBuffers& bufs,
                                  std::vector<u32>& staging,
                                  std::vector<u64>& host_minima) {
  BatchEffects fx;
  const u32 c = family.size();
  const std::size_t nsegs = batch.num_segments();
  const std::size_t nelems = batch.num_elements();
  // Every segment that ends its list emits one tuple per trial: trial j's
  // tuple of the segment ranked r among them goes to slot j * list_ends +
  // r — the order a serial trial-by-trial, segment-by-segment append
  // produces — so complete segments can be consumed in parallel. Split
  // pieces merge serially through the overlay.
  std::vector<std::size_t> end_rank(nsegs);
  std::vector<u32> split_segs;
  std::size_t list_ends = 0;
  for (std::size_t seg = 0; seg < nsegs; ++seg) {
    end_rank[seg] = list_ends;
    if (batch.seg_ends_list[seg] != 0) ++list_ends;
    if (batch.seg_starts_list[seg] == 0 || batch.seg_ends_list[seg] == 0) {
      split_segs.push_back(static_cast<u32>(seg));
    }
  }
  fx.tuples.shingle.resize(list_ends * c);
  fx.tuples.owner.resize(list_ends * c);
  const bool parallel_consume = nsegs >= kMinParallelConsumeSegments;

  {  // CPU aggregates the batch for the device (Figure 3, step 1).
    util::ScopedTimer t(reg, cpu_metric);
    obs::HostSpan span(tracer, trace_phase + ".stage");
    batch.stage(members, staging);
  }

  // Upload members and segment boundaries once per batch, into the lane's
  // in-flight buffer set (kept allocated until the lane is reused).
  bufs.members = device::DeviceVector<u32>(ctx, nelems);
  device::copy_to_device<u32>(bufs.members, staging, lane.compute);
  bufs.offsets = device::DeviceVector<u64>(ctx, nsegs + 1);
  device::copy_to_device<u64>(bufs.offsets, batch.seg_offsets, lane.compute);

  // The permuted images the modeled transform writes and the segmented
  // sort orders in place. The fused host scan never materializes them, but
  // the buffer stays allocated so the arena (peak bytes, allocation fault
  // indices, the derived batch size) accounts for the modeled pipeline.
  bufs.perm = device::DeviceVector<u64>(ctx, nelems);
  // Double-buffered minima so a copy-stream D2H can overlap the next trial.
  bufs.minima[0] = device::DeviceVector<u64>(ctx, nsegs * s);
  bufs.minima[1] = device::DeviceVector<u64>(ctx, nsegs * s);
  double copy_done[2] = {0.0, 0.0};

  const auto member_span = bufs.members.device_span();
  const auto seg_span = bufs.offsets.device_span();
  const double transform_cost = ctx.transform_cost(nelems);
  const double sort_cost =
      device::segmented_sort_cost<u64>(ctx, batch.seg_offsets);
  const double select_cost = ctx.transform_cost(nsegs * s);
  const std::string emulate_span = trace_phase + ".emulate";

  for (u32 j = 0; j < c; ++j) {
    const std::size_t buf = j % 2;
    const AffineHash& h = family[j];

    // hi() over every member of the batch (thrust::transform), then the
    // per-segment sort (thrust-style segmented sort).
    device::launch_kernel(ctx, "transform", lane.compute, transform_cost);
    device::launch_kernel(ctx, "segmented_sort", lane.compute, sort_cost);
    // Top-s selection into the trial's minima buffer. Must wait until
    // the previous copy out of this buffer has completed.
    const auto minima = bufs.minima[buf].device_span();
    const double select_done = device::launch_kernel(
        ctx, "tabulate", lane.compute, select_cost, copy_done[buf], [&] {
          obs::HostSpan span(tracer, emulate_span);
          ctx.pool().parallel_for(
              0, nsegs, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t seg = lo; seg < hi; ++seg) {
                  min_s_images(
                      member_span.subspan(seg_span[seg],
                                          seg_span[seg + 1] - seg_span[seg]),
                      h, s, minima.subspan(seg * s, s));
                }
              });
        });

    host_minima.resize(nsegs * s);
    copy_done[buf] = device::copy_to_host<u64>(host_minima, bufs.minima[buf],
                                               lane.copy, select_done);

    // CPU consumes the trial's minima: merge split pieces, hash complete
    // lists into tuples (Figure 3, step 2 + the split-list merge).
    util::ScopedTimer t(reg, cpu_metric);
    obs::HostSpan span(tracer, trace_phase + ".consume");
    ShingleId* shingles = fx.tuples.shingle.data() + j * list_ends;
    u32* owners = fx.tuples.owner.data() + j * list_ends;
    const auto consume_complete = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t seg = lo; seg < hi; ++seg) {
        if (batch.seg_starts_list[seg] == 0 || batch.seg_ends_list[seg] == 0) {
          continue;
        }
        shingles[end_rank[seg]] =
            consume_segment_minima(batch.seg_list_ids[seg], true, true, j, c,
                                   s, {host_minima.data() + seg * s, s},
                                   committed, fx);
        owners[end_rank[seg]] = batch.seg_list_ids[seg];
      }
    };
    if (parallel_consume) {
      ctx.pool().parallel_for(0, nsegs, consume_complete);
    } else {
      consume_complete(0, nsegs);
    }
    for (const u32 seg : split_segs) {
      const ShingleId id = consume_segment_minima(
          batch.seg_list_ids[seg], batch.seg_starts_list[seg] != 0,
          batch.seg_ends_list[seg] != 0, j, c, s,
          {host_minima.data() + seg * s, s}, committed, fx);
      if (batch.seg_ends_list[seg] != 0) {
        shingles[end_rank[seg]] = id;
        owners[end_rank[seg]] = batch.seg_list_ids[seg];
      }
    }
  }
  return fx;
}

/// Bit-identical CPU continuation: processes the remaining pieces with the
/// serial s-minima scan (min_s_images produces exactly the sorted
/// front-s the select kernel produces), feeding the same consume step, so
/// partially merged split lists complete correctly. The effects are
/// committed like a device batch's.
BatchEffects process_pieces_cpu(std::span<const ListPiece> pieces,
                                std::span<const u32> members,
                                const HashFamily& family, u32 s,
                                const PendingMap& pending) {
  const u32 c = family.size();
  std::vector<u64> minima(s);
  BatchEffects fx;
  for (u32 j = 0; j < c; ++j) {
    for (const ListPiece& piece : pieces) {
      min_s_images({members.data() + piece.global_begin,
                    static_cast<std::size_t>(piece.length)},
                   family[j], s, {minima.data(), s});
      const ShingleId id = consume_segment_minima(
          piece.list_id, piece.starts_list, piece.ends_list, j, c, s,
          {minima.data(), s}, pending, fx);
      if (piece.ends_list) fx.tuples.append(id, piece.list_id);
    }
  }
  return fx;
}

}  // namespace

std::size_t default_batch_elements(const device::DeviceContext& ctx, u32 s,
                                   std::size_t lanes) {
  // Per member element: u32 member + u64 permuted image = 12 bytes. The
  // minima buffers are 2 * num_segments * s * 8 bytes; in the worst case
  // every segment holds a single element, so bound them by 16*s bytes per
  // element. Offsets add 8 bytes per segment. Use half the free memory to
  // leave headroom for the auxiliary structures, split across the lanes
  // whose batches the pipeline keeps co-resident.
  const std::size_t per_element = 12 + 16 * static_cast<std::size_t>(s) + 8;
  const std::size_t budget =
      ctx.arena().available() / (2 * std::max<std::size_t>(1, lanes));
  return std::max<std::size_t>(1, budget / per_element);
}

ShingleTuples extract_shingles_device(device::DeviceContext& ctx,
                                      std::span<const u64> offsets,
                                      std::span<const u32> members,
                                      const HashFamily& family, u32 s,
                                      const DevicePassOptions& options,
                                      util::MetricsRegistry* metrics,
                                      const std::string& cpu_metric,
                                      DevicePassStats* stats,
                                      const std::string& trace_phase,
                                      const TupleSink& sink) {
  GPCLUST_CHECK(!offsets.empty() && offsets.back() == members.size(),
                "offsets must cover the member array");
  util::MetricsRegistry local;
  util::MetricsRegistry& reg = metrics ? *metrics : local;
  obs::Tracer* tracer = ctx.tracer();
  obs::DevicePhaseScope phase_scope(tracer, trace_phase);

  device::BatchPipeline pipeline(ctx, options.num_streams, options.resilience,
                                 tracer, trace_phase);
  const std::size_t cap =
      options.max_batch_elements > 0
          ? options.max_batch_elements
          : default_batch_elements(ctx, s, pipeline.num_lanes());

  std::vector<ListPiece> pieces;  // uncommitted pieces, as last planned
  {
    util::ScopedTimer t(reg, cpu_metric);
    obs::HostSpan span(tracer, trace_phase + ".plan");
    pieces = list_pieces(offsets, s);
  }

  ShingleTuples tuples;
  PendingMap pending;
  std::vector<u32> staging;
  std::vector<u64> host_minima;
  std::vector<LaneBuffers> lanes(pipeline.num_lanes());
  DevicePassStats run_stats;
  // The one place a batch's effects land: the device path, its retries
  // and replans, and the CPU fallback all commit through here.
  const auto commit = [&](BatchEffects&& fx) {
    {
      util::ScopedTimer t(reg, cpu_metric);
      obs::HostSpan span(tracer, trace_phase + ".commit");
      commit_pending(fx, pending);
      run_stats.num_tuples += fx.tuples.size();
      if (!sink) append_tuples(std::move(fx.tuples), tuples);
    }
    if (sink) sink(std::move(fx.tuples));
  };

  // Every batch of the remaining pieces is planned at once, and planned
  // again only after a replan.
  BatchPlan plan;  // empty until the next run_batch plans the remainder
  std::size_t next_batch = 0;
  std::size_t consumed = 0;  // elements of plan's committed batches
  device::BatchPass pass;
  pass.has_work = [&] { return !pieces.empty(); };
  pass.replan = [&] {
    pieces = remaining_pieces(pieces, consumed);
    plan.batches.clear();
  };
  pass.run_batch = [&](std::size_t batch_cap, const device::Lane& lane,
                       std::size_t slot) {
    if (plan.batches.empty()) {
      util::ScopedTimer t(reg, cpu_metric);
      obs::HostSpan span(tracer, trace_phase + ".plan");
      plan = plan_batches_from_pieces(pieces, batch_cap);
      next_batch = 0;
      consumed = 0;
    }
    const Batch& batch = plan.batches[next_batch];
    commit(process_batch_device(ctx, batch, members, family, s, reg,
                                cpu_metric, tracer, trace_phase, pending, lane,
                                lanes[slot], staging, host_minima));
    for (std::size_t seg = 0; seg < batch.num_segments(); ++seg) {
      if (batch.seg_starts_list[seg] && !batch.seg_ends_list[seg]) {
        ++run_stats.num_split_lists;
      }
    }
    consumed += batch.num_elements();
    if (++next_batch == plan.batches.size()) pass.replan();
  };
  pass.release_lane = [&](std::size_t slot) { lanes[slot] = LaneBuffers{}; };
  pass.finish_on_cpu = [&] {
    BatchEffects fx;
    {
      util::ScopedTimer t(reg, cpu_metric);
      obs::HostSpan span(tracer, trace_phase + ".cpu_fallback");
      fx = process_pieces_cpu(pieces, members, family, s, pending);
    }
    commit(std::move(fx));
    pieces.clear();
  };
  pipeline.run(pass, cap, run_stats);
  GPCLUST_CHECK(pending.empty(), "unfinished split lists after final batch");

  obs::add_counter(tracer, "batches", run_stats.num_batches);
  obs::add_counter(tracer, "tuples", run_stats.num_tuples);

  if (stats != nullptr) *stats = run_stats;
  return tuples;
}

}  // namespace gpclust::core
