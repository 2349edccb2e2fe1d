#pragma once
// gpClust — the paper's contribution (Algorithm 2): the CPU-GPU pipeline
// that runs both shingling levels on the device batch by batch inside the
// stage sequence every engine shares (two_pass_shingling: aggregation,
// distinct lists, the pass-2 component merge and the report on the CPU).
// GpClust adds the device side only: the context binding, the per-pass
// D2H split, DevicePassStats and GpClustReport.
//
// Produces bit-identical clusters to SerialShingler for the same
// parameters (the tuples are the same set, the rest is shared code) —
// enforced by the integration tests.

#include "core/clustering.hpp"
#include "core/device_shingling.hpp"
#include "core/params.hpp"
#include "core/serial_pclust.hpp"
#include "device/device_context.hpp"
#include "fault/fault_plan.hpp"
#include "graph/csr_graph.hpp"

namespace gpclust::obs {
class Tracer;
}

namespace gpclust::core {

struct GpClustOptions {
  /// Device streams the batch pipeline lays its lanes over (DESIGN.md §8):
  /// 1 is the paper's synchronous behavior, 2 one lane with a dedicated
  /// copy stream, 2L L batches in flight; 0 is rejected. It never changes
  /// the clustering result — only modeled device time.
  std::size_t num_streams = 1;

  /// Cap on member elements per device batch; 0 derives it from free
  /// device memory. Tests use small values to force splits.
  std::size_t max_batch_elements = 0;

  /// Deterministic fault injection: when non-null, the plan is bound to
  /// the device context for the duration of the run (alloc/h2d/d2h/kernel
  /// sites fire at their scheduled call indices). The same plan object can
  /// be shared with dist runs for comm-site faults.
  fault::FaultPlan* fault_plan = nullptr;

  /// How the pipeline reacts to device faults (injected or real): see
  /// fault::ResiliencePolicy. Off (the default) propagates the first
  /// fault; Fallback guarantees a bit-identical result to SerialShingler
  /// for any finite fault schedule.
  fault::ResiliencePolicy resilience;

  /// Observability: when non-null, the run records the stage sequence's
  /// spans and counters (two_pass_shingling), "load", the device passes'
  /// "pass1"/"pass2" spans and the "batches", "tuples", "h2d_bytes",
  /// "d2h_bytes" (also as pass1/pass2.d2h_bytes) and "arena_peak_bytes"
  /// counters into this tracer, bound to the device context for the run
  /// only. Tracing never affects the clustering result.
  obs::Tracer* tracer = nullptr;
};

/// Per-component runtime breakdown in the shape of the paper's Table I.
/// CPU and disk seconds are measured wall time; GPU and transfer seconds
/// come from the device cost model (see DESIGN.md §1).
struct GpClustReport {
  double cpu_seconds = 0.0;       ///< host-side staging/aggregation/report
  double gpu_seconds = 0.0;       ///< modeled kernel time
  double h2d_seconds = 0.0;       ///< modeled Data_c->g
  double d2h_seconds = 0.0;       ///< modeled Data_g->c
  double disk_seconds = 0.0;      ///< measured input-load time (if any)
  double device_makespan = 0.0;   ///< modeled device wall (respects overlap)

  /// Critical-path decomposition of the makespan (the three sum to
  /// device_makespan): modeled seconds each component actually added to
  /// the device wall clock after stream overlap hid the rest. The busy
  /// columns above ignore overlap; busy - exposed is the overlap won.
  double gpu_exposed_seconds = 0.0;
  double h2d_exposed_seconds = 0.0;
  double d2h_exposed_seconds = 0.0;

  DevicePassStats pass1;
  DevicePassStats pass2;

  /// Paper's "Total runtime" analog: CPU + disk + modeled device makespan
  /// (in sync mode the makespan equals gpu + h2d + d2h).
  double total_seconds() const {
    return cpu_seconds + disk_seconds + device_makespan;
  }
};

class GpClust {
 public:
  GpClust(device::DeviceContext& ctx, ShinglingParams params,
          GpClustOptions options = {});

  const ShinglingParams& params() const { return params_; }

  /// Clusters the similarity graph; fills `report` (if non-null) with the
  /// per-component breakdown of this run.
  Clustering cluster(const graph::CsrGraph& g,
                     GpClustReport* report = nullptr);

  /// Convenience: load the graph from a binary CSR file (disk I/O is
  /// measured into the report) and cluster it.
  Clustering cluster_file(const std::string& path,
                          GpClustReport* report = nullptr);

 private:
  Clustering run(const graph::CsrGraph& g, GpClustReport* report,
                 double disk_seconds);

  device::DeviceContext& ctx_;
  ShinglingParams params_;
  GpClustOptions options_;
};

}  // namespace gpclust::core
