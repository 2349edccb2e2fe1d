#include "align/prefilter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "align/blosum.hpp"

namespace gpclust::align {

int alignment_score_upper_bound(std::size_t len_a, std::size_t len_b) {
  const u64 cap = static_cast<u64>(blosum62_max_score()) *
                  static_cast<u64>(std::min(len_a, len_b));
  return static_cast<int>(
      std::min<u64>(cap, std::numeric_limits<int>::max()));
}

int edge_score_threshold(std::size_t len_a, std::size_t len_b, int min_score,
                         double min_score_per_residue) {
  // An integer score s satisfies s >= x exactly when s >= ceil(x).
  const double needed = std::ceil(min_score_per_residue *
                                  static_cast<double>(std::min(len_a, len_b)));
  const double ceiling = std::numeric_limits<int>::max();
  return std::max(min_score, static_cast<int>(std::min(needed, ceiling)));
}

bool exact_reject(std::size_t len_a, std::size_t len_b, int min_score,
                  double min_score_per_residue) {
  return alignment_score_upper_bound(len_a, len_b) <
         edge_score_threshold(len_a, len_b, min_score, min_score_per_residue);
}

int ungapped_xdrop_score(std::string_view a, std::string_view b, i32 diag,
                         int xdrop) {
  GPCLUST_CHECK(xdrop >= 0, "xdrop must be non-negative");
  const i64 i_begin = std::max<i64>(0, diag);
  const i64 i_end = std::min<i64>(static_cast<i64>(a.size()),
                                  static_cast<i64>(b.size()) + diag);
  int best = 0;
  int run = 0;
  int run_best = 0;
  for (i64 i = i_begin; i < i_end; ++i) {
    run += blosum62(a[static_cast<std::size_t>(i)],
                    b[static_cast<std::size_t>(i - diag)]);
    run_best = std::max(run_best, run);
    best = std::max(best, run_best);
    if (run < 0 || run <= run_best - xdrop) {
      run = 0;
      run_best = 0;
    }
  }
  return best;
}

}  // namespace gpclust::align
