#pragma once
// Algorithm 1 of the paper — "Shingling on GPU (D, s, c)" — executed over
// every batch of a pass, plus the CPU-side merge of split adjacency lists.
//
// Per batch: the staged member array is uploaded once; then for each of
// the family's c trials the device runs
//     transform (hash h_j over every member)           [Figure 4, hi()]
//   -> segmented sort (per adjacency-list segment)     [Figure 4]
//   -> select kernel (front s of each segment)         [top-s elements]
// and the s-minima per segment are copied back to the host, which hashes
// them into <shingle, owner> tuples ("it is safe to transfer the generated
// shingles back to the host memory after each iteration").
// The simulated device's kernels execute on the host: all three as one
// fused per-segment s-minima scan per trial, while each kernel keeps its
// own fault point and is charged its unchanged modeled cost.
//
// Stream pipelining (DESIGN.md §8): the pass runs on device::BatchPipeline,
// which lays `num_streams` device streams out as lanes — each lane a
// (compute, copy) stream pair holding one batch in flight — and owns the
// fault-recovery ladder. Inside a lane the trial minima are
// double-buffered so D2H copies overlap the next trial's kernels; up to
// lane-count batches are co-resident so batch i's D2H overlaps batch
// i+1's H2D and kernels. num_streams=1 is the paper's synchronous Thrust
// behavior; num_streams=2 is one lane with a dedicated copy stream.

#include "core/batching.hpp"
#include "core/minhash.hpp"
#include "core/params.hpp"
#include "core/shingle_graph.hpp"
#include "device/batch_pipeline.hpp"
#include "device/device_context.hpp"
#include "fault/resilience.hpp"
#include "util/timer.hpp"

namespace gpclust::core {

struct DevicePassOptions {
  std::size_t max_batch_elements = 0;  ///< 0: derive from device memory

  /// Device streams the batch pipeline lays its lanes over (1 = the
  /// paper's synchronous behavior; see device::BatchPipeline).
  std::size_t num_streams = 1;

  /// How the pass reacts to device faults (injected or real): adaptive
  /// batch backoff on OOM, bounded retries for transient transfer/kernel
  /// faults, and (in Fallback mode) bit-identical CPU processing of the
  /// remaining pieces after repeated unrecoverable faults — the one ladder
  /// of device::BatchPipeline.
  fault::ResiliencePolicy resilience;
};

struct DevicePassStats : device::BatchPipelineStats {
  std::size_t num_split_lists = 0;
  std::size_t num_tuples = 0;
};

/// Derives the largest safe batch size (in member elements) from the
/// device's free memory, accounting for the member, permutation, offset
/// and double-buffered minima arrays — of `lanes` co-resident batches when
/// the pipeline keeps several in flight.
std::size_t default_batch_elements(const device::DeviceContext& ctx, u32 s,
                                   std::size_t lanes = 1);

/// Runs one full shingling pass on the device over CSR-style lists
/// (left node i owns members[offsets[i]..offsets[i+1])). Produces exactly
/// the tuples extract_shingles_serial would produce, in a different order.
/// CPU-side staging/merging wall time is recorded under `cpu_metric` when
/// `metrics` is non-null. When a tracer is attached to `ctx`, the same
/// CPU sections become host-measured spans under `trace_phase` (".plan",
/// ".stage", ".consume", ".commit"), the host's emulation of the device
/// kernels becomes ".emulate" (measured host time spent standing in for
/// the simulated device — not part of `cpu_metric`, and never mixed into
/// the modeled timeline), modeled device ops are attributed to the phase,
/// and the "batches"/"tuples" counters advance.
///
/// When `sink` is set, each batch's tuples go to it right after the batch
/// commits (a faulted batch that is retried or replanned delivers nothing;
/// the CPU fallback delivers its pieces the same way) and the pass returns
/// no tuples. The sink runs outside the pass's timed sections.
ShingleTuples extract_shingles_device(device::DeviceContext& ctx,
                                      std::span<const u64> offsets,
                                      std::span<const u32> members,
                                      const HashFamily& family, u32 s,
                                      const DevicePassOptions& options,
                                      util::MetricsRegistry* metrics = nullptr,
                                      const std::string& cpu_metric = "gpclust.cpu",
                                      DevicePassStats* stats = nullptr,
                                      const std::string& trace_phase = "pass",
                                      const TupleSink& sink = {});

}  // namespace gpclust::core
