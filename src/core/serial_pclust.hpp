#pragma once
// pClust's two-pass Shingling (Wu & Kalyanaraman 2008; paper §III-B): the
// stage sequence every single-node engine runs — they differ only in where
// the shingling passes run — and the serial engine, the baseline of the
// paper's Table I, whose passes are a serial loop.

#include <functional>

#include "core/clustering.hpp"
#include "core/minhash.hpp"
#include "core/params.hpp"
#include "core/shingle_graph.hpp"
#include "graph/csr_graph.hpp"

namespace gpclust::obs {
class Tracer;
}

namespace gpclust::core {

/// Serial shingle extraction over CSR-style lists: left node i owns
/// members[offsets[i] .. offsets[i+1]). In each of the family's trials,
/// every list with >= s elements yields one <shingle, first_owner + i>.
ShingleTuples extract_shingles_serial(std::span<const u64> offsets,
                                      std::span<const u32> members,
                                      const HashFamily& family, u32 s,
                                      u32 first_owner = 0);

/// A shingling pass: extract_shingles_serial's tuples, in any order. With a
/// sink it hands them over batch by batch and returns none.
using ShinglingPass = std::function<ShingleTuples(
    std::span<const u64> offsets, std::span<const u32> members,
    const HashFamily& family, u32 s, const TupleSink& sink)>;

/// Algorithm 2 around the engine's passes: G_I keeps its lists of at least
/// s2 members, `pass2` runs once per distinct list and each of its batches
/// merges into S1ComponentBuilder (G_II is never built). Records the spans
/// "aggregate1", "dedup", "aggregate2" (per batch) and "report", whose
/// measured seconds go to `host_seconds`, and the counters "sequences",
/// "pass{1,2}.tuples", "pass2.lists", "g{1,2}.shingles" and "shingles".
Clustering two_pass_shingling(const graph::CsrGraph& g,
                              const ShinglingParams& params,
                              const ShinglingPass& pass1,
                              const ShinglingPass& pass2, obs::Tracer* tracer,
                              double* host_seconds = nullptr);

/// pClust: the stage sequence with serial passes.
class SerialShingler {
 public:
  explicit SerialShingler(ShinglingParams params) : params_(params) {}

  const ShinglingParams& params() const { return params_; }

  /// Clusters the similarity graph; the passes add the "shingling1/2" spans
  /// and the "tuples" counter to the sequence's (all host-measured).
  Clustering cluster(const graph::CsrGraph& g,
                     obs::Tracer* tracer = nullptr) const;

 private:
  ShinglingParams params_;
};

}  // namespace gpclust::core
