#pragma once
// Filter cascade for homology-graph verification. Two tiers:
//
//  * Exact tier (always on): admissible score upper bounds derived only
//    from sequence lengths and the largest BLOSUM62 entry. A pair rejected
//    here provably cannot clear the edge thresholds, so skipping its DP
//    cannot change the graph. Its accept-side twin lives in
//    homology_graph.cpp: the ungapped seed-diagonal score below is a lower
//    bound on the optimum, so a pair whose floor clears the threshold is
//    an edge without any DP.
//
//  * Heuristic tier (HomologyPrefilterConfig, default OFF): shared-seed
//    floors and an ungapped x-drop scan along the pair's seed diagonal.
//    These can reject true edges (a shared-seed count is NOT an admissible
//    bound: distinct-kmer counting and repeat masking both break the
//    count-vs-match-length relation — see DESIGN.md §9), which is why they
//    are opt-in and the default graph stays bit-identical.

#include <string_view>

#include "align/smith_waterman.hpp"

namespace gpclust::align {

/// Admissible upper bound on the Smith-Waterman score of any local
/// alignment between sequences of the given lengths: every aligned column
/// scores at most blosum62_max_score(), and a local alignment has at most
/// min(len_a, len_b) match/mismatch columns (gap columns only subtract).
int alignment_score_upper_bound(std::size_t len_a, std::size_t len_b);

/// The edge gate as one integer: a score clears BOTH edge thresholds
/// (score >= min_score and score >= min_score_per_residue * min(len_a,
/// len_b)) exactly when it is >= this value, max(min_score,
/// ceil(min_score_per_residue * min(len_a, len_b))).
int edge_score_threshold(std::size_t len_a, std::size_t len_b, int min_score,
                         double min_score_per_residue);

/// True when the exact tier proves the pair cannot clear the edge
/// threshold: alignment_score_upper_bound < edge_score_threshold. Never
/// rejects a pair the full DP would accept.
bool exact_reject(std::size_t len_a, std::size_t len_b, int min_score,
                  double min_score_per_residue);

/// Best ungapped segment score along one diagonal of the DP matrix
/// (a[i] vs b[i - diag]), with x-drop termination: a segment is abandoned
/// once its running score falls `xdrop` below the segment's best (or below
/// zero), and a fresh segment starts. With a large xdrop this degenerates
/// to the best-scoring contiguous segment on the diagonal, which is a
/// lower bound on the full Smith-Waterman score; small xdrops trade recall
/// for an earlier bail-out. Diagonals with no overlap score 0.
int ungapped_xdrop_score(std::string_view a, std::string_view b, i32 diag,
                         int xdrop);

}  // namespace gpclust::align
