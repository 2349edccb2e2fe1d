#pragma once
// The serial Shingling implementation (pClust, Wu & Kalyanaraman 2008) —
// the baseline every speedup in the paper's Table I is measured against.
// Two shingling passes with an s-sized insertion sort per (list, trial),
// aggregation into shingle graphs, and Phase III reporting.

#include "core/cluster_report.hpp"
#include "core/clustering.hpp"
#include "core/minhash.hpp"
#include "core/params.hpp"
#include "core/shingle_graph.hpp"
#include "graph/csr_graph.hpp"

namespace gpclust::obs {
class Tracer;
}

namespace gpclust::core {

/// Serial shingle extraction over generic CSR-style lists: left node i owns
/// members[offsets[i] .. offsets[i+1]). For each of the family's trials,
/// every list with >= s elements contributes one <shingle, i> tuple.
ShingleTuples extract_shingles_serial(std::span<const u64> offsets,
                                      std::span<const u32> members,
                                      const HashFamily& family, u32 s);

/// pClust: the complete serial pipeline.
class SerialShingler {
 public:
  explicit SerialShingler(ShinglingParams params) : params_(params) {}

  const ShinglingParams& params() const { return params_; }

  /// Clusters the similarity graph. When `tracer` is provided, the phases
  /// are recorded as host-measured spans ("shingling1", "aggregate1",
  /// "dedup", "shingling2", "aggregate2", "report") plus the
  /// "sequences"/"tuples"/"shingles" counters — the profile the paper uses
  /// to show ~80% of serial time is in shingling. Every span of a serial
  /// run is host-measured (there is no device).
  Clustering cluster(const graph::CsrGraph& g,
                     obs::Tracer* tracer = nullptr) const;

 private:
  ShinglingParams params_;
};

}  // namespace gpclust::core
