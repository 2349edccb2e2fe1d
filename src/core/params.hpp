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

  void validate(std::size_t num_vertices) const {
    GPCLUST_CHECK(s1 >= 1 && s2 >= 1, "shingle size must be >= 1");
    GPCLUST_CHECK(c1 >= 1 && c2 >= 1, "trial count must be >= 1");
    GPCLUST_CHECK(prime > num_vertices,
                  "prime must exceed the vertex id universe");
    GPCLUST_CHECK(util::is_prime(prime), "modulus must be prime");
  }
};

}  // namespace gpclust::core
