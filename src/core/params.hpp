#pragma once
// Parameters of the two-pass Shingling heuristic (paper §III-D):
// default s1=2, c1=200 for the first level and s2=2, c2=100 for the
// second level, chosen by the authors' preliminary empirical tests.

#include "util/common.hpp"
#include "util/prime.hpp"

namespace gpclust::core {

/// How Phase III turns the level-2 shingle graph into clusters
/// (paper §III-B, "Phase III - Reporting dense subgraphs").
enum class ReportMode {
  /// Option 1: connected components of G_II; clusters may overlap.
  Overlapping,
  /// Option 2: union-find over all vertices; a strict partition.
  /// This is the mode the paper uses for all experiments.
  Partition,
};

/// Execution shape of the CPU-GPU pipeline (DESIGN.md §8): how many device
/// streams the batch scheduler pipelines over. It never affects the
/// clustering result — the bit-identity invariant (§5.1) holds for every
/// stream count — only modeled device time.
struct PipelineParams {
  /// Device streams available to the batch pipeline.
  ///   1  — fully synchronous (the paper's Thrust behavior): every op on
  ///        one stream, makespan == sum of all modeled durations.
  ///   2  — one lane with a dedicated copy stream: D2H copies double-buffer
  ///        behind the next trial's kernels (the legacy `async` mode).
  ///   2L — L lanes, each a (compute, copy) stream pair: up to L batches
  ///        in flight, so batch i's D2H overlaps batch i+1's H2D and
  ///        kernels. Odd counts: the last lane shares one stream for
  ///        compute and copies.
  std::size_t num_streams = 1;

  /// Lane count implied by num_streams (ceil(num_streams / 2)).
  std::size_t num_lanes() const { return num_streams / 2 + num_streams % 2; }

  void validate() const {
    GPCLUST_CHECK(num_streams >= 1, "need at least one device stream");
  }
};

struct ShinglingParams {
  u32 s1 = 2;   ///< shingle size, first level
  u32 c1 = 200; ///< number of random trials, first level
  u32 s2 = 2;   ///< shingle size, second level
  u32 c2 = 100; ///< number of random trials, second level

  /// Seed for the fixed set of random pairs <A_j, B_j>.
  u64 seed = 20130520;

  /// The "big prime number" P of the min-wise permutation v -> (A*v+B)%P.
  /// Must exceed every vertex id in the input graph.
  u64 prime = util::kMersenne61;

  ReportMode mode = ReportMode::Partition;

  /// Clusters smaller than this are still computed, but helpers exist to
  /// filter (the GOS comparison only reports clusters of size >= 20).
  std::size_t min_cluster_size = 1;

  void validate(std::size_t num_vertices) const {
    GPCLUST_CHECK(s1 >= 1 && s2 >= 1, "shingle size must be >= 1");
    GPCLUST_CHECK(c1 >= 1 && c2 >= 1, "trial count must be >= 1");
    GPCLUST_CHECK(prime > num_vertices,
                  "prime must exceed the vertex id universe");
    GPCLUST_CHECK(util::is_prime(prime), "modulus must be prime");
  }
};

}  // namespace gpclust::core
