#pragma once
// Distributed-memory Shingling over the in-process message-passing runtime
// — the dpClust direction of the paper's lineage ([18] ported pClust to
// distributed memory; [25] ran homology detection on thousands of ranks).
//
// Plan (per pass): each rank shingles a block of the lists serially and
// the tuples are exchanged all-to-all keyed by shingle id, so all owners
// of one shingle meet on one rank. Pass 1's ranks aggregate their piece of
// G_I (lists of at least s2 members, as the engines keep) and number its
// shingles globally by prefix sum; pass 2's ranks merge their shingle
// range into components (core::S1ComponentBuilder). The root gathers G_I
// and the ranks' components, unites them and reports like the engines, so
// the clustering is **identical to SerialShingler's** for the same
// parameters (verified by tests). G_II is never built or gathered.

#include "core/clustering.hpp"
#include "core/params.hpp"
#include "dist/comm.hpp"
#include "graph/csr_graph.hpp"

namespace gpclust::obs {
class Tracer;
}

namespace gpclust::dist {

struct DistStats {
  std::size_t num_ranks = 0;  ///< live ranks the run actually used
  std::size_t tuples_exchanged_pass1 = 0;
  std::size_t tuples_exchanged_pass2 = 0;
  std::size_t ranks_reassigned = 0;  ///< ranks down per the fault plan
};

/// Clusters `g` with `num_ranks` communicating ranks. The graph is shared
/// read-only across ranks (shared-memory style); only shingle tuples, the
/// ranks' component pairs and the gathered G_I travel as messages.
///
/// When `tracer` is provided, the run records one host-measured
/// "dist.cluster" span (wall time of the whole rank ensemble — all rank
/// work is real host time) plus the "sequences"/"tuples" counters (tuples
/// = total exchanged over both passes) and the engines' "g1.shingles",
/// "g2.shingles" and "shingles", summed over the ranks' shingle ranges.
///
/// When `fault_plan` is provided, its send/recv schedules fire inside the
/// comm layer and its rank_down entries mark ranks as never coming up.
/// With `resilience` off any such fault is a CommError; otherwise comm
/// faults are retried per the policy and down ranks are reassigned: the
/// run proceeds on the surviving ranks only, which re-shards every block
/// decomposition — the partition is bit-identical for any rank count, so
/// the result is unchanged ("rank_reassignments" counter records it).
core::Clustering distributed_cluster(const graph::CsrGraph& g,
                                     const core::ShinglingParams& params,
                                     std::size_t num_ranks,
                                     DistStats* stats = nullptr,
                                     obs::Tracer* tracer = nullptr,
                                     fault::FaultPlan* fault_plan = nullptr,
                                     fault::ResiliencePolicy resilience = {});

}  // namespace gpclust::dist
