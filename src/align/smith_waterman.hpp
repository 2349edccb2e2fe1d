#pragma once
// Smith-Waterman local alignment [20] with affine gap penalties (Gotoh),
// the optimality-guaranteeing verification stage of the pGraph pipeline:
// "subsequently performing the optimality-guaranteeing Smith-Waterman
// alignment algorithm only on those identified pairs".

#include <string_view>

#include "util/common.hpp"

namespace gpclust::align {

struct AlignmentParams {
  int gap_open = 11;    ///< cost of opening a gap (positive)
  int gap_extend = 1;   ///< cost of extending a gap (positive)

  void validate() const {
    GPCLUST_CHECK(gap_open >= 0 && gap_extend >= 0,
                  "gap penalties must be non-negative");
  }
};

struct AlignmentResult {
  int score = 0;             ///< best local alignment score (>= 0)
  std::size_t a_end = 0;     ///< one-past-last aligned position in a
  std::size_t b_end = 0;     ///< one-past-last aligned position in b
};

/// Full O(|a| * |b|) affine-gap Smith-Waterman. Linear memory.
AlignmentResult smith_waterman(std::string_view a, std::string_view b,
                               const AlignmentParams& params = {});

/// Full alignment with traceback: the aligned region's coordinates, the
/// residue-level identity, and the alignment string. O(|a| * |b|) memory.
struct TracedAlignment {
  int score = 0;
  std::size_t a_begin = 0, a_end = 0;  ///< [begin, end) in a
  std::size_t b_begin = 0, b_end = 0;  ///< [begin, end) in b
  std::size_t matches = 0;             ///< identical aligned residue pairs
  std::size_t alignment_length = 0;    ///< columns incl. gaps
  /// One char per column: '|' match, '.' substitution, 'a' gap in b
  /// (a-residue unmatched), 'b' gap in a.
  std::string ops;

  /// matches / alignment_length (0 for an empty alignment).
  double identity() const {
    return alignment_length == 0
               ? 0.0
               : static_cast<double>(matches) /
                     static_cast<double>(alignment_length);
  }
};

TracedAlignment smith_waterman_traced(std::string_view a, std::string_view b,
                                      const AlignmentParams& params = {});

/// Banded variant of smith_waterman_traced: full affine traceback over the
/// cells with |i - j| <= band only, in O((|a| + |b|) * band) time and
/// memory. Exact whenever the optimal local alignment's diagonal excursion
/// stays within the band, never overestimates, and equals
/// smith_waterman_traced exactly once band >= max(|a|, |b|). The identity
/// pass of the homology-graph fast path calls this on the score-only
/// pass's end-coordinate prefix with a growing band until the known
/// optimal score is reproduced.
TracedAlignment smith_waterman_traced_banded(std::string_view a,
                                             std::string_view b,
                                             std::size_t band,
                                             const AlignmentParams& params = {});

}  // namespace gpclust::align
