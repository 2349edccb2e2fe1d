#pragma once
// Seeded inputs of one benchmark run: a synthetic metagenome drawn from the
// heavy-tailed family model of `gpclust --demo-orfs`, shuffled and split
// into the base that is built and served and the tail that is appended,
// plus the pool of queries the traffic generators draw from. The program
// under test only ever sees these generated sequences.

#include <string>
#include <vector>

#include "seq/sequence.hpp"
#include "util/common.hpp"

namespace perfbench {

struct InputShape {
  std::size_t families = 400;    ///< planted families (2 background ORFs each)
  double base_fraction = 0.75;   ///< share of the shuffled ORFs built first
  std::size_t query_pool = 2048; ///< distinct queries the streams draw from
};

struct Inputs {
  gpclust::seq::SequenceSet base;        ///< built, then served
  gpclust::seq::SequenceSet tail;        ///< appended batch by batch
  std::vector<gpclust::u32> base_family; ///< planted family of each base ORF
  std::vector<std::string> queries;      ///< the query pool
  /// 1 when the query is a mutated fragment of a stored ORF, 0 when it is
  /// an unrelated ORF that should stop at the seed stage.
  std::vector<gpclust::u8> query_related;
};

Inputs make_inputs(const InputShape& shape, gpclust::u64 seed);

}  // namespace perfbench
