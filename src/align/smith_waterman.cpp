#include "align/smith_waterman.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "align/blosum.hpp"
#include "seq/alphabet.hpp"

namespace gpclust::align {

namespace {
constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

std::vector<u8> encode(std::string_view s) {
  std::vector<u8> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    out[i] = seq::residue_index(s[i]);
  }
  return out;
}
}  // namespace

AlignmentResult smith_waterman(std::string_view a, std::string_view b,
                               const AlignmentParams& params) {
  params.validate();
  const auto ea = encode(a);
  const auto eb = encode(b);
  const std::size_t n = ea.size();
  const std::size_t m = eb.size();

  AlignmentResult best;
  if (n == 0 || m == 0) return best;

  // Gotoh recurrences, row-major over a; one row of H (match/mismatch end),
  // E (gap in a, i.e. horizontal) kept; F (gap in b, vertical) is carried
  // per column scan.
  std::vector<int> h(m + 1, 0);
  std::vector<int> e(m + 1, kNegInf);

  for (std::size_t i = 1; i <= n; ++i) {
    int h_diag = 0;  // H[i-1][0]
    int h_left = 0;  // H[i][0]
    int f = kNegInf;
    for (std::size_t j = 1; j <= m; ++j) {
      e[j] = std::max(e[j] - params.gap_extend,
                      h[j] - params.gap_open - params.gap_extend);
      f = std::max(f - params.gap_extend,
                   h_left - params.gap_open - params.gap_extend);
      const int diag = h_diag + blosum62_by_index(ea[i - 1], eb[j - 1]);
      int score = std::max({0, diag, e[j], f});
      h_diag = h[j];
      h[j] = score;
      h_left = score;
      if (score > best.score) {
        best.score = score;
        best.a_end = i;
        best.b_end = j;
      }
    }
  }
  return best;
}

TracedAlignment smith_waterman_traced(std::string_view a, std::string_view b,
                                      const AlignmentParams& params) {
  params.validate();
  const auto ea = encode(a);
  const auto eb = encode(b);
  const std::size_t n = ea.size();
  const std::size_t m = eb.size();
  TracedAlignment out;
  if (n == 0 || m == 0) return out;

  // Full Gotoh matrices (H, E, F) for exact affine traceback.
  const std::size_t w = m + 1;
  std::vector<int> H((n + 1) * w, 0), E((n + 1) * w, kNegInf),
      F((n + 1) * w, kNegInf);
  auto at = [w](std::size_t i, std::size_t j) { return i * w + j; };

  std::size_t best_i = 0, best_j = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      E[at(i, j)] = std::max(E[at(i - 1, j)] - params.gap_extend,
                             H[at(i - 1, j)] - params.gap_open -
                                 params.gap_extend);
      F[at(i, j)] = std::max(F[at(i, j - 1)] - params.gap_extend,
                             H[at(i, j - 1)] - params.gap_open -
                                 params.gap_extend);
      const int diag =
          H[at(i - 1, j - 1)] + blosum62_by_index(ea[i - 1], eb[j - 1]);
      H[at(i, j)] = std::max({0, diag, E[at(i, j)], F[at(i, j)]});
      if (H[at(i, j)] > out.score) {
        out.score = H[at(i, j)];
        best_i = i;
        best_j = j;
      }
    }
  }
  if (out.score == 0) return out;

  // Traceback from (best_i, best_j) until H reaches 0. State machine over
  // the three matrices (start in H).
  enum class State { H, E, F };
  State state = State::H;
  std::size_t i = best_i, j = best_j;
  std::string rev_ops;
  while (true) {
    if (state == State::H) {
      if (H[at(i, j)] == 0) break;
      const int diag =
          H[at(i - 1, j - 1)] + blosum62_by_index(ea[i - 1], eb[j - 1]);
      if (H[at(i, j)] == diag) {
        rev_ops.push_back(ea[i - 1] == eb[j - 1] ? '|' : '.');
        if (ea[i - 1] == eb[j - 1]) ++out.matches;
        --i;
        --j;
      } else if (H[at(i, j)] == E[at(i, j)]) {
        state = State::E;
      } else {
        GPCLUST_CHECK(H[at(i, j)] == F[at(i, j)], "traceback inconsistent");
        state = State::F;
      }
    } else if (state == State::E) {
      // Gap in b: consumed a[i-1].
      rev_ops.push_back('a');
      const bool opened = E[at(i, j)] ==
                          H[at(i - 1, j)] - params.gap_open - params.gap_extend;
      --i;
      if (opened) state = State::H;
    } else {
      rev_ops.push_back('b');
      const bool opened = F[at(i, j)] ==
                          H[at(i, j - 1)] - params.gap_open - params.gap_extend;
      --j;
      if (opened) state = State::H;
    }
  }
  out.a_begin = i;
  out.a_end = best_i;
  out.b_begin = j;
  out.b_end = best_j;
  out.ops.assign(rev_ops.rbegin(), rev_ops.rend());
  out.alignment_length = out.ops.size();
  return out;
}

TracedAlignment smith_waterman_traced_banded(std::string_view a,
                                             std::string_view b,
                                             std::size_t band,
                                             const AlignmentParams& params) {
  params.validate();
  const auto ea = encode(a);
  const auto eb = encode(b);
  const std::size_t n = ea.size();
  const std::size_t m = eb.size();
  TracedAlignment out;
  if (n == 0 || m == 0) return out;

  // Row-relative band storage: cell (i, j) with |i - j| <= band lives at
  // column j - i + band of row i, so each row is 2*band+1 wide. Reads
  // outside the band (or at the i = 0 / j = 0 borders) see the local-
  // alignment boundary values H = 0, E = F = -inf, exactly like the
  // score-only banded variant — the band can therefore only miss score,
  // never invent it.
  const std::ptrdiff_t bw = static_cast<std::ptrdiff_t>(band);
  const std::size_t w = 2 * band + 1;
  std::vector<int> H((n + 1) * w, 0), E((n + 1) * w, kNegInf),
      F((n + 1) * w, kNegInf);
  auto in_band = [&](std::size_t i, std::size_t j) {
    const auto d = static_cast<std::ptrdiff_t>(j) - static_cast<std::ptrdiff_t>(i);
    return i >= 1 && j >= 1 && j <= m && i <= n && d >= -bw && d <= bw;
  };
  auto at = [&](std::size_t i, std::size_t j) {
    return i * w + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(j) -
                                            static_cast<std::ptrdiff_t>(i) + bw);
  };
  auto h_at = [&](std::size_t i, std::size_t j) {
    return in_band(i, j) ? H[at(i, j)] : 0;
  };
  auto e_at = [&](std::size_t i, std::size_t j) {
    return in_band(i, j) ? E[at(i, j)] : kNegInf;
  };
  auto f_at = [&](std::size_t i, std::size_t j) {
    return in_band(i, j) ? F[at(i, j)] : kNegInf;
  };

  std::size_t best_i = 0, best_j = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const std::ptrdiff_t lo =
        std::max<std::ptrdiff_t>(1, static_cast<std::ptrdiff_t>(i) - bw);
    const std::ptrdiff_t hi =
        std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(m),
                                 static_cast<std::ptrdiff_t>(i) + bw);
    for (std::ptrdiff_t jj = lo; jj <= hi; ++jj) {
      const auto j = static_cast<std::size_t>(jj);
      const int e = std::max(e_at(i - 1, j) - params.gap_extend,
                             h_at(i - 1, j) - params.gap_open -
                                 params.gap_extend);
      const int f = std::max(f_at(i, j - 1) - params.gap_extend,
                             h_at(i, j - 1) - params.gap_open -
                                 params.gap_extend);
      const int diag = h_at(i - 1, j - 1) + blosum62_by_index(ea[i - 1], eb[j - 1]);
      const int h = std::max({0, diag, e, f});
      E[at(i, j)] = e;
      F[at(i, j)] = f;
      H[at(i, j)] = h;
      if (h > out.score) {
        out.score = h;
        best_i = i;
        best_j = j;
      }
    }
  }
  if (out.score == 0) return out;

  // Same traceback state machine as the full variant, reading through the
  // band-aware accessors.
  enum class State { H, E, F };
  State state = State::H;
  std::size_t i = best_i, j = best_j;
  std::string rev_ops;
  while (true) {
    if (state == State::H) {
      if (h_at(i, j) == 0) break;
      const int diag = h_at(i - 1, j - 1) + blosum62_by_index(ea[i - 1], eb[j - 1]);
      if (h_at(i, j) == diag) {
        rev_ops.push_back(ea[i - 1] == eb[j - 1] ? '|' : '.');
        if (ea[i - 1] == eb[j - 1]) ++out.matches;
        --i;
        --j;
      } else if (h_at(i, j) == e_at(i, j)) {
        state = State::E;
      } else {
        GPCLUST_CHECK(h_at(i, j) == f_at(i, j), "banded traceback inconsistent");
        state = State::F;
      }
    } else if (state == State::E) {
      rev_ops.push_back('a');
      const bool opened = e_at(i, j) ==
                          h_at(i - 1, j) - params.gap_open - params.gap_extend;
      --i;
      if (opened) state = State::H;
    } else {
      rev_ops.push_back('b');
      const bool opened = f_at(i, j) ==
                          h_at(i, j - 1) - params.gap_open - params.gap_extend;
      --j;
      if (opened) state = State::H;
    }
  }
  out.a_begin = i;
  out.a_end = best_i;
  out.b_begin = j;
  out.b_end = best_j;
  out.ops.assign(rev_ops.rbegin(), rev_ops.rend());
  out.alignment_length = out.ops.size();
  return out;
}

}  // namespace gpclust::align
