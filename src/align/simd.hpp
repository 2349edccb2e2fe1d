#pragma once
// Striped SIMD Smith-Waterman (Farrar, Bioinformatics 2007) — the
// verification fast path of the homology-graph builder. The kernel runs
// 16 unsigned 8-bit lanes per 128-bit vector and rescues high-scoring
// pairs with an 8-lane 16-bit pass; pathological inputs (either pass
// saturated, or sequences long enough that 16 bits could not hold the
// self-alignment score) fall back to the scalar Gotoh reference. Every
// path returns the exact smith_waterman() score, unless the caller passes
// a stop score and the running best reaches it (see smith_waterman_simd).
//
// The vector layer picks the best available backend at compile time:
// SSE2 intrinsics (native saturating ops) where the target has them,
// otherwise portable compiler vector extensions. Build with
// -DGPCLUST_SIMD_SCALAR=ON to force scalar lane arrays instead — same
// algorithm, same results, no SIMD codegen (the portability build).

#include <limits>
#include <span>
#include <string_view>

#include "align/query_profile.hpp"
#include "align/smith_waterman.hpp"

namespace gpclust::align {

/// True when the kernel was compiled with compiler vector extensions,
/// false in the scalar-lane fallback build (GPCLUST_SIMD_SCALAR).
bool simd_vectorized();

/// Where each smith_waterman_simd call was ultimately resolved. The first
/// three counters partition the calls on non-empty inputs; early_stops is
/// the subset of the 8- and 16-bit resolutions that ended at the stop
/// score instead of scanning the whole target.
struct SimdCounters {
  u64 runs_8bit = 0;          ///< pairs resolved by the 8-bit kernel
  u64 rescues_16bit = 0;      ///< 8-bit saturation -> 16-bit rerun
  u64 scalar_fallbacks = 0;   ///< 16-bit unsafe/saturated -> scalar Gotoh
  u64 early_stops = 0;        ///< running best reached the stop score

  SimdCounters& operator+=(const SimdCounters& o) {
    runs_8bit += o.runs_8bit;
    rescues_16bit += o.rescues_16bit;
    scalar_fallbacks += o.scalar_fallbacks;
    early_stops += o.early_stops;
    return *this;
  }
};

/// stop_score default of smith_waterman_simd: no score reaches it, so the
/// kernel always scans the whole target.
inline constexpr int kNoStopScore = std::numeric_limits<int>::max();

/// Score-exact striped Smith-Waterman of the profiled query against an
/// encoded target (seq::residue_index values). Returns the same score as
/// smith_waterman(profile.query(), target). End coordinates name a cell
/// attaining the optimal score (first such target position, then first
/// such query position — a co-optimal end, not necessarily the scalar
/// scan-order one).
///
/// score_floor is an optional PROVEN lower bound on the optimal score
/// (e.g. an ungapped seed-diagonal score — any concrete local alignment
/// qualifies). It only steers width dispatch: a floor already inside the
/// 8-bit clipping margin proves the 8-bit pass would saturate, so the
/// kernel starts at 16 bits and skips the doomed pass. Results are
/// identical for any valid floor; an invalid (too-high) floor may cost
/// exactness.
///
/// stop_score turns the call into a threshold decision. The running best
/// of a local alignment only rises column by column, so the 8- and 16-bit
/// kernels return as soon as it reaches stop_score: the returned score is
/// then only a LOWER BOUND (>= stop_score, not the optimum) and a_end /
/// b_end are 0. In every case `score >= stop_score` holds exactly when the
/// optimal score is >= stop_score, and a score below stop_score is the
/// optimum with its end cell. The scalar fallback ignores the stop. Callers
/// that rank by score or need the end cell (a traceback) keep the default.
AlignmentResult smith_waterman_simd(const QueryProfile& profile,
                                    std::span<const u8> target_encoded,
                                    const AlignmentParams& params = {},
                                    SimdCounters* counters = nullptr,
                                    int score_floor = 0,
                                    int stop_score = kNoStopScore);

/// Convenience overload: builds a one-shot profile and encodes the target.
AlignmentResult smith_waterman_simd(std::string_view query,
                                    std::string_view target,
                                    const AlignmentParams& params = {},
                                    SimdCounters* counters = nullptr);

}  // namespace gpclust::align
