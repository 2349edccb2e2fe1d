#include "align/simd.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "align/blosum.hpp"
#include "seq/alphabet.hpp"

#if defined(__SSE2__) && !defined(GPCLUST_SIMD_SCALAR)
#define GPCLUST_SW_SSE2 1
#include <emmintrin.h>
#elif defined(__GNUC__) && !defined(GPCLUST_SIMD_SCALAR)
#define GPCLUST_SW_VECTOR 1
#endif

namespace gpclust::align {

namespace {

// 128-bit vector of score lanes (8-bit x 16 or 16-bit x 8). Three
// equivalent backends, best available first: SSE2 intrinsics (native
// saturating ops — the ones the striped kernel lives on; the 16-bit
// variant runs signed-biased lanes for native max/compare), GNU vector
// extensions (unsigned, saturation synthesized from compare masks), and
// plain unsigned lane arrays (the GPCLUST_SIMD_SCALAR portability build).
// Lane encodings differ; decoded scores — and therefore results — do not.
#ifdef GPCLUST_SW_SSE2

struct Vec8 {
  using Lane = u8;
  static constexpr std::size_t kLanes = 16;
  static constexpr u32 kScoreCeil = 255;    ///< largest representable score
  static constexpr u32 kPenaltyCeil = 255;  ///< largest exact penalty splat
  static constexpr Lane kZeroLane = 0;      ///< stored pattern of score 0
  __m128i v;

  static Vec8 zero() { return {_mm_setzero_si128()}; }
  static Vec8 splat(Lane x) {
    return {_mm_set1_epi8(static_cast<char>(x))};
  }
  static Lane encode_lane(u32 s) { return static_cast<Lane>(s); }
  static u32 decode_lane(Lane x) { return x; }
  static Vec8 load(const Lane* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(Lane* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  friend Vec8 add_sat(Vec8 a, Vec8 b) { return {_mm_adds_epu8(a.v, b.v)}; }
  friend Vec8 sub_sat(Vec8 a, Vec8 b) { return {_mm_subs_epu8(a.v, b.v)}; }
  friend Vec8 vmax(Vec8 a, Vec8 b) { return {_mm_max_epu8(a.v, b.v)}; }
  friend Vec8 shift_up(Vec8 a) { return {_mm_slli_si128(a.v, 1)}; }
  friend bool any_gt(Vec8 a, Vec8 b) {
    // No unsigned 8-bit compare in SSE2: a > b exactly where the
    // saturating difference is nonzero.
    return _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_subs_epu8(a.v, b.v),
                                            _mm_setzero_si128())) != 0xffff;
  }
  friend u32 hmax(Vec8 a) {
    __m128i m = _mm_max_epu8(a.v, _mm_srli_si128(a.v, 8));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 4));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 2));
    m = _mm_max_epu8(m, _mm_srli_si128(m, 1));
    return static_cast<u32>(_mm_cvtsi128_si32(m)) & 0xffu;
  }
};

/// 16-bit lanes kept SIGNED and biased by -32768 (the SSW "word" trick):
/// score s is stored as the i16 value s - 32768, so the signed min is the
/// score floor and _mm_max_epi16 / _mm_cmpgt_epi16 — which SSE2 does have
/// natively — order the lanes correctly. Penalties and profile entries are
/// added as plain (unbiased) magnitudes; the bias cancels in every
/// comparison. Representable score span is the full 0..65535, same as the
/// unsigned formulation.
struct Vec16 {
  using Lane = u16;  ///< raw stored pattern; pattern(s) = s ^ 0x8000
  static constexpr std::size_t kLanes = 8;
  static constexpr u32 kScoreCeil = 65535;
  static constexpr u32 kPenaltyCeil = 32767;  ///< signed plain-value ceiling
  static constexpr Lane kZeroLane = 0x8000;
  __m128i v;

  static Vec16 zero() { return {_mm_set1_epi16(static_cast<short>(0x8000))}; }
  /// Splat of a plain magnitude (penalty / bias), NOT a biased score.
  static Vec16 splat(Lane x) {
    return {_mm_set1_epi16(static_cast<short>(x))};
  }
  static Lane encode_lane(u32 s) { return static_cast<Lane>(s ^ 0x8000u); }
  static u32 decode_lane(Lane x) { return static_cast<u32>(x) ^ 0x8000u; }
  static Vec16 load(const Lane* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(Lane* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  friend Vec16 add_sat(Vec16 a, Vec16 b) { return {_mm_adds_epi16(a.v, b.v)}; }
  friend Vec16 sub_sat(Vec16 a, Vec16 b) { return {_mm_subs_epi16(a.v, b.v)}; }
  friend Vec16 vmax(Vec16 a, Vec16 b) { return {_mm_max_epi16(a.v, b.v)}; }
  friend Vec16 shift_up(Vec16 a) {
    // The byte shift injects 0x0000, which in the biased domain is score
    // 32768, not 0 — lane 0 must be re-seeded with the biased zero.
    return {_mm_insert_epi16(_mm_slli_si128(a.v, 2), -0x8000, 0)};
  }
  friend bool any_gt(Vec16 a, Vec16 b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi16(a.v, b.v)) != 0;
  }
  friend u32 hmax(Vec16 a) {
    // Fold with replicating shuffles: a zero-filling byte shift would
    // inject the 0x0000 pattern (= score 32768) into the reduction.
    __m128i m = _mm_max_epi16(
        a.v, _mm_shuffle_epi32(a.v, _MM_SHUFFLE(1, 0, 3, 2)));
    m = _mm_max_epi16(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 3, 0, 1)));
    m = _mm_max_epi16(m, _mm_shufflelo_epi16(m, _MM_SHUFFLE(2, 3, 0, 1)));
    return decode_lane(
        static_cast<Lane>(_mm_cvtsi128_si32(m) & 0xffff));
  }
};

#else  // !GPCLUST_SW_SSE2

template <typename LaneT>
struct SimdVec {
  using Lane = LaneT;
  static constexpr std::size_t kLanes = 16 / sizeof(LaneT);
  static constexpr u32 kScoreCeil = std::numeric_limits<Lane>::max();
  static constexpr u32 kPenaltyCeil = std::numeric_limits<Lane>::max();
  static constexpr Lane kZeroLane = 0;

  static Lane encode_lane(u32 s) { return static_cast<Lane>(s); }
  static u32 decode_lane(Lane x) { return x; }

#ifdef GPCLUST_SW_VECTOR
  typedef LaneT Native __attribute__((vector_size(16)));
  Native v;

  static SimdVec zero() { return {Native{}}; }
  static SimdVec splat(Lane x) { return {Native{} + x}; }
  static SimdVec load(const Lane* p) {
    SimdVec r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }
  void store(Lane* p) const { std::memcpy(p, &v, sizeof(v)); }
  friend SimdVec add_sat(SimdVec a, SimdVec b) {
    const Native s = a.v + b.v;
    return {s | Native(s < a.v)};  // wrapped lanes -> all-ones -> max
  }
  friend SimdVec sub_sat(SimdVec a, SimdVec b) {
    return {(a.v - b.v) & Native(a.v > b.v)};  // floor at zero
  }
  friend SimdVec vmax(SimdVec a, SimdVec b) {
    const Native m = Native(a.v > b.v);
    return {(a.v & m) | (b.v & ~m)};
  }
#else
  Lane v[kLanes];

  static SimdVec zero() { return SimdVec{}; }
  static SimdVec splat(Lane x) {
    SimdVec r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = x;
    return r;
  }
  static SimdVec load(const Lane* p) {
    SimdVec r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  void store(Lane* p) const { std::memcpy(p, v, sizeof(v)); }
  friend SimdVec add_sat(SimdVec a, SimdVec b) {
    SimdVec r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Lane s = static_cast<Lane>(a.v[i] + b.v[i]);
      r.v[i] = s < a.v[i] ? std::numeric_limits<Lane>::max() : s;
    }
    return r;
  }
  friend SimdVec sub_sat(SimdVec a, SimdVec b) {
    SimdVec r;
    for (std::size_t i = 0; i < kLanes; ++i) {
      r.v[i] = a.v[i] > b.v[i] ? static_cast<Lane>(a.v[i] - b.v[i]) : 0;
    }
    return r;
  }
  friend SimdVec vmax(SimdVec a, SimdVec b) {
    SimdVec r;
    for (std::size_t i = 0; i < kLanes; ++i) r.v[i] = std::max(a.v[i], b.v[i]);
    return r;
  }
#endif

  /// All lanes moved one position up; lane 0 becomes 0 (the striped
  /// stripe-boundary shift; one per column, not in the inner loop).
  friend SimdVec shift_up(SimdVec a) {
    Lane tmp[kLanes + 1];
    tmp[0] = 0;
    std::memcpy(tmp + 1, &a, sizeof(Lane) * kLanes);
    return load(tmp);
  }
  friend bool any_nonzero(SimdVec a) {
    u64 w[2];
    std::memcpy(w, &a, sizeof(w));
    return (w[0] | w[1]) != 0;
  }
  friend u32 hmax(SimdVec a) {
    Lane tmp[kLanes];
    a.store(tmp);
    u32 best = 0;
    for (std::size_t i = 0; i < kLanes; ++i) best = std::max<u32>(best, tmp[i]);
    return best;
  }
};

using Vec8 = SimdVec<u8>;
using Vec16 = SimdVec<u16>;

/// True in any lane where a > b (unsigned): saturating subtraction leaves
/// a nonzero residue exactly there. (The SSE2 structs carry their own
/// any_gt friends — native compares beat this synthesis.)
template <typename Vec>
bool any_gt(Vec a, Vec b) {
  return any_nonzero(sub_sat(a, b));
}

#endif  // GPCLUST_SW_SSE2

struct KernelResult {
  u32 best = 0;
  std::size_t a_end = 0;
  std::size_t b_end = 0;
  bool saturated = false;
  bool stopped = false;  ///< best reached the stop score; end cells unset
};

/// One striped Farrar pass at the lane width of Vec. Scores are kept
/// unbiased in the 0..Vec::kScoreCeil span (the profile's +bias is
/// subtracted back each step; how a score is stored in a lane is the
/// Vec's business — see encode_lane/decode_lane), E/F states are floored
/// at score 0 — safe because H = max(0, ...) can never benefit from a
/// negative gap state. Returns saturated=true when the lane type may have
/// clipped the true score, in which case the caller escalates, and
/// stopped=true (best >= stop, end cells unset) once the best reaches
/// `stop`.
template <typename Vec>
KernelResult run_striped(const QueryProfile& qp, std::span<const u8> target,
                         const AlignmentParams& params, int stop) {
  using Lane = typename Vec::Lane;
  constexpr std::size_t kV = Vec::kLanes;
  const std::size_t seg =
      kV == QueryProfile::kLanes8 ? qp.segments8() : qp.segments16();
  auto row = [&qp](u8 r) -> const Lane* {
    if constexpr (kV == QueryProfile::kLanes8) {
      return qp.row8(r);
    } else {
      return qp.row16(r);
    }
  };
  // Penalties ride in lanes as plain magnitudes, clamped to what the lane
  // representation holds exactly. A clamped penalty only misbehaves when a
  // cell score above the ceiling meets a penalty above the ceiling; the
  // dispatcher routes that corner away from this kernel (see pen16_exact).
  auto clamp_lane = [](int x) {
    return static_cast<Lane>(
        std::min<u32>(static_cast<u32>(x), Vec::kPenaltyCeil));
  };

  const Vec vBias = Vec::splat(static_cast<Lane>(QueryProfile::kBias));
  const Vec vGapOE = Vec::splat(clamp_lane(params.gap_open + params.gap_extend));
  const Vec vGapE = Vec::splat(clamp_lane(params.gap_extend));

  // Reused scratch: [0, seg) and [seg, 2*seg) are the H ping-pong rows,
  // [2*seg, 3*seg) is E, [3*seg, 4*seg) snapshots the best column. One
  // verification worker runs one kernel at a time, so thread_local reuse
  // is safe and keeps the hot path free of allocations.
  static thread_local std::vector<Lane> scratch;
  scratch.assign(4 * seg * kV, Vec::kZeroLane);
  Lane* pvHLoad = scratch.data();
  Lane* pvHStore = scratch.data() + seg * kV;
  Lane* pvE = scratch.data() + 2 * seg * kV;
  Lane* pvHBest = scratch.data() + 3 * seg * kV;

  KernelResult out;
  const std::size_t n = qp.length();
  const u32 kSatLimit = Vec::kScoreCeil -
                        static_cast<u32>(QueryProfile::kBias) -
                        static_cast<u32>(blosum62_max_score());
  Vec vBest = Vec::zero();  // lane-wise high-water mark, gates the hmax

  for (std::size_t j = 0; j < target.size(); ++j) {
    const Lane* prof = row(target[j]);
    Vec vF = Vec::zero();
    // Diagonal feed for stripe 0: last stripe of the previous column,
    // lanes shifted up one (lane 0 sees the H = 0 boundary).
    Vec vH = shift_up(Vec::load(pvHStore + (seg - 1) * kV));
    std::swap(pvHLoad, pvHStore);
    Vec vColMax = Vec::zero();

    for (std::size_t k = 0; k < seg; ++k) {
      vH = sub_sat(add_sat(vH, Vec::load(prof + k * kV)), vBias);
      const Vec vE = Vec::load(pvE + k * kV);
      vH = vmax(vH, vE);
      vH = vmax(vH, vF);
      vColMax = vmax(vColMax, vH);
      vH.store(pvHStore + k * kV);
      const Vec vHGap = sub_sat(vH, vGapOE);
      vmax(sub_sat(vE, vGapE), vHGap).store(pvE + k * kV);
      vF = vmax(sub_sat(vF, vGapE), vHGap);
      vH = Vec::load(pvHLoad + k * kV);
    }

    // Lazy F: the stripe loop propagated F within each lane's segment;
    // what is missing is the flow across lane boundaries. The classic
    // wrap-until-quiet loop revisits the column up to kLanes times, which
    // degenerates to O(n) per column on high-identity pairs (a long
    // vertical-gap tail trails every strong diagonal). Instead, resolve
    // all cross-lane carries with one scalar scan over the kLanes final
    // F values — the carry into lane l is the previous lane's outgoing F
    // or the further-decayed flow from lanes above, whichever survives —
    // then apply a single fix-up wrap with the fully-resolved carry.
    // Re-openings from cells the fix-up raises are dominated by the carry
    // ramp itself (gap_open >= 0 so open+extend >= extend), so one wrap
    // is exact.
    // Common-case skip (classic Farrar stripe-0 exit): if even the
    // single-boundary carry is dominated by re-opening in every lane, no
    // cross-lane flow of any depth can matter, and the column is done.
    if (any_gt(shift_up(vF), sub_sat(Vec::load(pvHStore), vGapOE))) {
      Lane fout[kV];
      vF.store(fout);
      Lane fin[kV];
      const u64 seg_decay =
          static_cast<u64>(seg) * static_cast<u64>(params.gap_extend);
      u64 carry = 0;  // in the plain score domain, not the lane encoding
      for (std::size_t l = 0; l < kV; ++l) {
        fin[l] = Vec::encode_lane(static_cast<u32>(carry));
        const u64 decayed = carry > seg_decay ? carry - seg_decay : 0;
        carry = std::max<u64>(Vec::decode_lane(fout[l]), decayed);
      }
      Vec vFin = Vec::load(fin);
      for (std::size_t k = 0; k < seg; ++k) {
        const Vec vH2 = Vec::load(pvHStore + k * kV);
        // Same exit, per stripe: a carry dominated by re-opening
        // everywhere is covered by the stripe loop's in-lane F chain.
        if (!any_gt(vFin, sub_sat(vH2, vGapOE))) break;
        // No vColMax update here: every fixed-up value descends from some
        // H of this column minus at least gap_open + gap_extend, so it
        // can tie the column max only when both penalties are zero and
        // never beat it — ties change neither hmax nor the strictly-
        // greater improvement trigger below.
        vmax(vH2, vFin).store(pvHStore + k * kV);
        vFin = sub_sat(vFin, vGapE);
      }
    }

    // End-cell bookkeeping, gated by a cheap vector test: only a column
    // that raises some lane past its high-water mark can raise the global
    // best. On improvement, record the column and snapshot its H values;
    // the query position is recovered from the snapshot once, after the
    // last column, instead of rescanning on every improvement (that scan
    // is O(n x m) on high-identity pairs whose best advances per column).
    if (any_gt(vColMax, vBest)) {
      vBest = vmax(vBest, vColMax);
      const u32 colmax = hmax(vColMax);
      if (colmax > out.best) {
        out.best = colmax;
        out.b_end = j + 1;
        // The best never falls, so "score >= stop" is decided here. This
        // test precedes the saturation one: every earlier column stayed
        // under kSatLimit, so no add in this column could clip and colmax
        // is a true cell score, a lower bound on the optimum.
        if (static_cast<i64>(out.best) >= stop) {
          out.stopped = true;
          out.b_end = 0;
          return out;
        }
        // Once the best is inside the clipping margin the pass is doomed
        // (the criterion is monotone in best), so stop paying for the
        // rest of the target — the caller rescues at the next width.
        if (out.best >= kSatLimit) {
          out.saturated = true;
          return out;
        }
        std::memcpy(pvHBest, pvHStore, sizeof(Lane) * seg * kV);
      }
    }
  }

  // Recover the end position within the best column: the first query
  // position attaining the max, scanned in query order. Padding lanes
  // never strictly exceed every real lane (their values only decay from
  // real cells), so the scan always lands on a real query position.
  if (out.best > 0) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      const std::size_t stripe = pos % seg;
      const std::size_t lane = pos / seg;
      if (pvHBest[stripe * kV + lane] == Vec::encode_lane(out.best)) {
        out.a_end = pos + 1;
        break;
      }
    }
    GPCLUST_CHECK(out.a_end > 0, "SIMD max not found in a real lane");
  }

  // If the best is close enough to the lane ceiling that an add could
  // have clipped somewhere, the score is not trustworthy at this width
  // (the early-abort above already returned for most such passes).
  out.saturated = out.best >= kSatLimit;
  return out;
}

std::string decode(std::span<const u8> encoded) {
  std::string s(encoded.size(), 'A');
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    s[i] = seq::residue_char(encoded[i]);
  }
  return s;
}

}  // namespace

bool simd_vectorized() {
#if defined(GPCLUST_SW_SSE2) || defined(GPCLUST_SW_VECTOR)
  return true;
#else
  return false;
#endif
}

AlignmentResult smith_waterman_simd(const QueryProfile& profile,
                                    std::span<const u8> target_encoded,
                                    const AlignmentParams& params,
                                    SimdCounters* counters, int score_floor,
                                    int stop_score) {
  params.validate();
  AlignmentResult result;
  if (profile.length() == 0 || target_encoded.empty()) return result;

  const std::size_t min_len = std::min(profile.length(), target_encoded.size());
  const u64 score_cap = static_cast<u64>(blosum62_max_score()) * min_len;
  const u64 lane8_safe = std::numeric_limits<u8>::max() -
                         static_cast<u64>(QueryProfile::kBias) -
                         static_cast<u64>(blosum62_max_score());
  // A proven lower bound inside the clipping margin means the 8-bit pass
  // is certain to saturate (its computed best only ever over-approximates
  // the true score) — skip straight to the 16-bit width it would have
  // rescued to anyway. A cap under the margin means it cannot saturate.
  const bool skip_8bit =
      score_floor > 0 && static_cast<u64>(score_floor) >= lane8_safe;
  if (!skip_8bit) {
    const auto r8 =
        run_striped<Vec8>(profile, target_encoded, params, stop_score);
    if (score_cap < lane8_safe) {
      GPCLUST_CHECK(!r8.saturated, "8-bit SW pass saturated inside its cap");
    }
    if (!r8.saturated) {
      if (counters != nullptr) {
        ++counters->runs_8bit;
        if (r8.stopped) ++counters->early_stops;
      }
      return {static_cast<int>(r8.best), r8.a_end, r8.b_end};
    }
  }

  // 16-bit rescue — only if 16 bits provably hold the largest possible
  // score (blosum62_max_score() per aligned column, at most min-length
  // columns, plus bias headroom).
  const u64 lane16_safe = std::numeric_limits<u16>::max() -
                          static_cast<u64>(QueryProfile::kBias) -
                          static_cast<u64>(blosum62_max_score());
  // The SSE2 16-bit kernel stores signed-biased lanes, which caps the
  // exactly-representable penalty at 32767. A clamped penalty is still
  // exact unless a cell score above 32767 meets it, so only the
  // (gigantic-penalty AND long-near-identical-pair) corner is at risk;
  // send it to the scalar fallback. Checked in every build — the other
  // backends don't need it, but identical routing keeps the resolution
  // counters bit-identical across backends.
  const u64 max_penalty = static_cast<u64>(params.gap_open) +
                          static_cast<u64>(params.gap_extend);
  const bool pen16_exact = max_penalty <= 32767 || score_cap <= 32767;
  if (score_cap < lane16_safe && pen16_exact) {
    const auto r16 =
        run_striped<Vec16>(profile, target_encoded, params, stop_score);
    GPCLUST_CHECK(!r16.saturated, "16-bit SW pass saturated inside its cap");
    if (counters != nullptr) {
      ++counters->rescues_16bit;
      if (r16.stopped) ++counters->early_stops;
    }
    return {static_cast<int>(r16.best), r16.a_end, r16.b_end};
  }

  if (counters != nullptr) ++counters->scalar_fallbacks;
  return smith_waterman(profile.query(), decode(target_encoded), params);
}

AlignmentResult smith_waterman_simd(std::string_view query,
                                    std::string_view target,
                                    const AlignmentParams& params,
                                    SimdCounters* counters) {
  const QueryProfile profile(query);
  std::vector<u8> encoded(target.size());
  for (std::size_t i = 0; i < target.size(); ++i) {
    encoded[i] = seq::residue_index(target[i]);
  }
  return smith_waterman_simd(profile, encoded, params, counters);
}

}  // namespace gpclust::align
