#pragma once
// Verification stage of the homology-graph cascade (DESIGN.md §11): the
// candidate stream from the seed index passes through the exact admissible
// prefilter, and the survivors are verified with batched score-only
// Smith-Waterman on one of three interchangeable backends:
//
//   * HostScalar    — the Gotoh reference DP, pair by pair.
//   * HostSimd      — the striped SIMD fast path (PR 4), score-exact.
//   * DeviceBatched — pair tasks packed into batches and scheduled on the
//                     simulated device's k-stream lane pipeline; modeled
//                     time lands on the SimTimeline, and the kernel body
//                     runs the scalar reference DP per task, so scores AND
//                     end cells are bit-identical to HostScalar.
//
// All three produce the same accept decisions for the same config; the
// backend only moves where (and in whose time domain) the DP cells burn.
// The DeviceBatched backend runs on device::BatchPipeline, the scheduler
// the shingling pass runs on too: OOM halves the batch, transient
// transfer/kernel faults retry with charged backoff, and Fallback mode
// finishes the remaining pairs on the CPU with the kernel's per-pair body,
// bit-identically.

#include <span>
#include <string>
#include <vector>

#include "align/kmer_index.hpp"
#include "align/smith_waterman.hpp"
#include "device/batch_pipeline.hpp"
#include "device/device_context.hpp"
#include "fault/resilience.hpp"
#include "obs/trace.hpp"
#include "seq/sequence.hpp"

namespace gpclust::align {

/// Which engine scores the surviving candidate pairs.
enum class VerifyBackend {
  HostScalar,     ///< scalar Gotoh reference, one pair at a time
  HostSimd,       ///< striped SIMD fast path (default)
  DeviceBatched,  ///< batched pair tasks on the simulated device
};

/// Parses "scalar" | "simd" | "device"; throws InvalidArgument otherwise.
VerifyBackend parse_verify_backend(const std::string& name);
std::string_view verify_backend_name(VerifyBackend backend);

/// One score-only verification task: a candidate pair expressed as offsets
/// into a batch's packed residue buffer (sequences are deduplicated within
/// a batch, so co-batched pairs sharing a query upload it once).
struct PairTask {
  u32 a_begin = 0;
  u32 a_len = 0;
  u32 b_begin = 0;
  u32 b_len = 0;

  u64 cells() const {
    return static_cast<u64>(a_len) * static_cast<u64>(b_len);
  }
};

/// Kernel result per task. End coordinates are the scalar DP's scan-order
/// end cell (one past the last aligned position), so the host-side
/// identity traceback resumes from them exactly as it does for HostScalar.
struct PairScore {
  i32 score = 0;
  u32 a_end = 0;
  u32 b_end = 0;
};

/// Scores one task against a packed residue buffer with the scalar
/// reference DP — the batched kernel's per-task body, also usable host-side.
/// The CPU fallback runs the same per-pair body on the unpacked sequences.
PairScore score_pair_task(std::span<const char> residues, const PairTask& task,
                          const AlignmentParams& params);

/// Host batched score-only entry point: out[i] = score of tasks[i].
/// Bit-identical to the device kernel by construction (same per-task body);
/// the reference the tests hold the batched kernel to.
void score_pairs_batch(std::span<const char> residues,
                       std::span<const PairTask> tasks,
                       std::span<PairScore> out,
                       const AlignmentParams& params);

/// Knobs of the DeviceBatched backend.
struct DeviceVerifyOptions {
  /// The simulated device the batches run on. Required for DeviceBatched.
  device::DeviceContext* context = nullptr;

  /// Pairs per batch; 0 derives a cap from free device memory, split
  /// across the lanes the pipeline keeps co-resident.
  std::size_t max_batch_pairs = 0;

  /// Device streams for the lane pipeline (1 = synchronous; 2 = one lane
  /// with a dedicated copy stream; 2L = L batches in flight; 0 is
  /// rejected). See device::BatchPipeline (DESIGN.md §8).
  std::size_t num_streams = 1;

  /// Fault reaction: OOM batch-halving, bounded retries with charged
  /// backoff, bit-identical CPU fallback (device::BatchPipeline's ladder).
  fault::ResiliencePolicy resilience;
};

/// Bookkeeping of one device-batched verify run. Host fields are measured
/// wall time; *_modeled_s fields are simulated device seconds — never add
/// the two domains into one number without labeling (CLAUDE.md).
struct VerifyDeviceStats : device::BatchPipelineStats {
  /// Host-measured seconds spent packing batches (the CPU side that feeds
  /// the double-buffered lanes).
  double pack_host_s = 0.0;

  /// Modeled device seconds this verify added to the context timeline
  /// (makespan delta) and its exposed-critical-path split by op kind
  /// (the three components sum to the makespan delta).
  double makespan_modeled_s = 0.0;
  double kernel_exposed_modeled_s = 0.0;
  double h2d_exposed_modeled_s = 0.0;
  double d2h_exposed_modeled_s = 0.0;
};

/// Device-batched score pass over the surviving candidate pairs: packs
/// them into batches, uploads packed residues + tasks per lane, runs the
/// weighted verification kernel and copies the scores back, charging
/// modeled time throughout. Returns one PairScore per surviving index
/// (out[k] scores pairs[surviving[k]]), bit-identical to running
/// score_pairs_batch on the host. `tracer` receives the host-side spans
/// and counters; modeled ops are attributed through the context's tracer
/// (bound to `tracer` for the call when the context has none).
std::vector<PairScore> device_score_pairs(device::DeviceContext& ctx,
                                          const seq::SequenceSet& sequences,
                                          std::span<const CandidatePair> pairs,
                                          std::span<const u32> surviving,
                                          const AlignmentParams& params,
                                          const DeviceVerifyOptions& options,
                                          obs::Tracer* tracer,
                                          VerifyDeviceStats* stats);

}  // namespace gpclust::align
