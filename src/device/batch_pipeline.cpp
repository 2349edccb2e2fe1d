#include "device/batch_pipeline.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace gpclust::device {

BatchPipeline::BatchPipeline(DeviceContext& ctx, std::size_t num_streams,
                             const fault::ResiliencePolicy& policy,
                             obs::Tracer* tracer, std::string phase)
    : ctx_(ctx), policy_(policy), tracer_(tracer), phase_(std::move(phase)) {
  GPCLUST_CHECK(num_streams >= 1, "need at least one device stream");
  ctx_.timeline().ensure_streams(num_streams);
  lanes_.resize(num_streams / 2 + num_streams % 2);
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    lanes_[l].compute = static_cast<StreamId>(2 * l);
    lanes_[l].copy =
        static_cast<StreamId>(std::min(2 * l + 1, num_streams - 1));
  }
}

void BatchPipeline::run(const BatchPass& pass, std::size_t cap,
                        BatchPipelineStats& stats) {
  stats.num_lanes = lanes_.size();
  // held[l]: lane l still holds the buffers of its last committed batch.
  std::vector<bool> held(lanes_.size(), false);
  int consecutive_failures = 0;
  std::size_t next = 0;

  while (pass.has_work()) {
    int attempt = 0;
    for (;;) {
      // Reusing a lane retires its previous in-flight batch: the modeled
      // schedule can no longer overlap that batch, so its device buffers
      // return to the arena before this batch allocates.
      pass.release_lane(next);
      held[next] = false;
      try {
        pass.run_batch(cap, lanes_[next], next);
        ++stats.num_batches;
        held[next] = true;
        consecutive_failures = 0;
        next = (next + 1) % lanes_.size();
        break;
      } catch (const DeviceError& e) {
        // A fault drains the pipeline: every lane's in-flight buffers are
        // released before the recovery ladder runs, so retries and replans
        // see the arena exactly as a fresh pass would. With one lane
        // nothing else is ever in flight.
        bool others_held = false;
        for (std::size_t l = 0; l < lanes_.size(); ++l) {
          if (l != next && held[l]) others_held = true;
          pass.release_lane(l);
          held[l] = false;
        }
        if (others_held) {
          ++stats.num_pipeline_drains;
          obs::add_counter(tracer_, "pipeline_drains", 1);
        }
        if (!policy_.enabled()) throw;
        const bool transient = dynamic_cast<const TransferError*>(&e) ||
                               dynamic_cast<const KernelError*>(&e);
        if (transient && attempt < policy_.max_retries) {
          // Bounded retry of the whole (uncommitted) batch. The
          // deterministic backoff is modeled device time, charged to the
          // faulted lane's compute stream.
          ++attempt;
          obs::DevicePhaseScope scope(ctx_.tracer(), phase_ + ".retry");
          ctx_.timeline().enqueue(
              lanes_[next].compute, OpKind::Kernel,
              policy_.retry_backoff_seconds *
                  static_cast<double>(u64{1} << (attempt - 1)));
          ++stats.num_retries;
          obs::add_counter(tracer_, "retries", 1);
          continue;
        }
        if (!transient && others_held) {
          // Structural OOM while other batches were co-resident: the drain
          // just returned their memory, so retry at the same size before
          // concluding the batch size itself is the problem.
          continue;
        }
        if (!transient && cap > policy_.min_batch_elements) {
          // Adaptive batch backoff: halve the cap and re-plan the remainder
          // (every pass commits identical results under any re-batching).
          cap = std::max(policy_.min_batch_elements, cap / 2);
          ++stats.num_batch_replans;
          obs::add_counter(tracer_, "batch_replans", 1);
          pass.replan();
          break;
        }
        // Unrecoverable here: retries exhausted or OOM at the batch-size
        // floor. In Fallback mode tolerate up to max_consecutive_failures
        // full re-attempts, then finish the rest of the pass on the CPU.
        if (!policy_.fallback_enabled()) throw;
        pass.replan();
        if (++consecutive_failures >= policy_.max_consecutive_failures) {
          stats.cpu_fallback = true;
          obs::add_counter(tracer_, "cpu_fallbacks", 1);
          pass.finish_on_cpu();
          return;
        }
        break;
      }
    }
  }
}

}  // namespace gpclust::device
