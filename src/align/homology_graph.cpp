#include "align/homology_graph.hpp"

#include <algorithm>
#include <functional>
#include <mutex>
#include <optional>

#include "align/prefilter.hpp"
#include "seq/alphabet.hpp"
#include "util/timer.hpp"

namespace gpclust::align {

namespace {

/// Identity traceback that reuses the score pass's end cell: only the
/// prefix rectangle ending at (a_end, b_end) can contain the optimal
/// alignment ending there, and a band grown from the end-cell diagonal
/// almost always holds it. The band doubles until the banded score matches
/// the known optimal score — guaranteed at band >= max(prefix lengths),
/// where banded and full DP coincide.
TracedAlignment traced_from_end(const std::string& a, const std::string& b,
                                const AlignmentResult& scored,
                                const AlignmentParams& params) {
  const std::string_view pa(a.data(), scored.a_end);
  const std::string_view pb(b.data(), scored.b_end);
  const std::size_t full = std::max(pa.size(), pb.size());
  const std::size_t skew = pa.size() > pb.size() ? pa.size() - pb.size()
                                                 : pb.size() - pa.size();
  std::size_t band = std::min(full, skew + 16);
  for (;;) {
    TracedAlignment traced = smith_waterman_traced_banded(pa, pb, band, params);
    if (traced.score == scored.score) return traced;
    GPCLUST_CHECK(band < full, "full-width banded traceback missed the score");
    band = std::min(full, band * 2);
  }
}

/// Chunked fan-out of both verify stages over [0, n): inline for
/// num_threads == 1, the default pool for 0, else one pool of that size
/// shared by the two stages.
class Fanout {
 public:
  explicit Fanout(std::size_t num_threads) {
    if (num_threads == 0) {
      pool_ = &util::default_thread_pool();
    } else if (num_threads > 1) {
      own_.emplace(num_threads);
      pool_ = &*own_;
    }
  }
  Fanout(const Fanout&) = delete;  // pool_ may point into own_
  Fanout& operator=(const Fanout&) = delete;

  void operator()(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
    if (pool_ == nullptr) {
      fn(0, n);
    } else {
      pool_->parallel_for(0, n, fn);
    }
  }

 private:
  util::ThreadPool* pool_ = nullptr;
  std::optional<util::ThreadPool> own_;
};

/// X-drop of the seed-diagonal scan that yields each pair's score floor
/// (generous: a higher floor decides more pairs; any value is correct).
constexpr int kFloorXdrop = 1 << 20;

/// Stage 2's verdict on one candidate pair.
enum class Verdict : u8 {
  Undecided,        ///< needs a score DP in stage 3
  ExactReject,      ///< the length bound proves score < T
  HeuristicReject,  ///< dropped by the opt-in tier
  ExactAccept,      ///< the seed-diagonal floor proves score >= T
};

/// Stage 2's output: the undecided pairs in candidate-stream order, each
/// with its seed-diagonal floor.
struct Undecided {
  std::vector<u32> pairs;
  std::vector<int> floors;
};

/// Stage 2 — one parallel pass writes a verdict per candidate: the exact
/// length-bound reject (always on), the opt-in heuristic tier, then the
/// exact accept tier. The ungapped score along the pair's seed diagonal is
/// itself a local alignment, so it lower-bounds the gapped optimum for any
/// diagonal; a floor that reaches T proves an edge with no DP. The tier
/// (`accept_tier`) needs min_identity == 0, since the identity gate needs
/// a traceback.
/// Then a serial compaction counts the verdicts, marks the accepted pairs
/// and lists the undecided ones in candidate order, so every backend
/// scores the identical list and the counters are attributed identically
/// no matter where stage 3 runs.
Undecided classify_candidates(const seq::SequenceSet& sequences,
                              std::span<const CandidatePair> pairs,
                              const HomologyGraphConfig& config,
                              bool accept_tier, Fanout& fanout,
                              std::vector<u8>& accepted,
                              HomologyGraphStats& totals) {
  std::vector<Verdict> verdicts(pairs.size());
  std::vector<int> floors(pairs.size());
  fanout(pairs.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& p = pairs[i];
      const auto& a = sequences[p.a].residues;
      const auto& b = sequences[p.b].residues;
      if (exact_reject(a.size(), b.size(), config.min_score,
                       config.min_score_per_residue)) {
        verdicts[i] = Verdict::ExactReject;
        continue;
      }
      if (config.prefilter.enabled &&
          (p.shared_kmers < config.prefilter.min_shared_seeds ||
           (config.prefilter.min_ungapped_score > 0 &&
            ungapped_xdrop_score(a, b, p.diag, config.prefilter.xdrop) <
                config.prefilter.min_ungapped_score))) {
        verdicts[i] = Verdict::HeuristicReject;
        continue;
      }
      floors[i] = ungapped_xdrop_score(a, b, p.diag, kFloorXdrop);
      if (accept_tier &&
          floors[i] >= edge_score_threshold(a.size(), b.size(),
                                            config.min_score,
                                            config.min_score_per_residue)) {
        verdicts[i] = Verdict::ExactAccept;
      }
    }
  });

  Undecided undecided;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    switch (verdicts[i]) {
      case Verdict::ExactReject:
        ++totals.num_exact_rejects;
        break;
      case Verdict::HeuristicReject:
        ++totals.num_heuristic_rejects;
        break;
      case Verdict::ExactAccept:
        ++totals.num_exact_accepts;
        accepted[i] = 1;
        break;
      case Verdict::Undecided:
        undecided.pairs.push_back(static_cast<u32>(i));
        undecided.floors.push_back(floors[i]);
        break;
    }
  }
  totals.num_surviving_pairs =
      totals.num_exact_accepts + undecided.pairs.size();
  return undecided;
}

}  // namespace

SeedMode parse_seed_mode(const std::string& name) {
  if (name == "kmer") return SeedMode::KmerCount;
  if (name == "maximal") return SeedMode::MaximalMatch;
  if (name == "minhash") return SeedMode::MinHashLsh;
  throw InvalidArgument("unknown seed mode: " + name +
                        " (expected kmer | maximal | minhash)");
}

std::string_view seed_mode_name(SeedMode mode) {
  switch (mode) {
    case SeedMode::KmerCount:
      return "kmer";
    case SeedMode::MaximalMatch:
      return "maximal";
    case SeedMode::MinHashLsh:
      return "minhash";
  }
  return "?";
}

std::vector<u8> verify_candidate_pairs(const seq::SequenceSet& sequences,
                                       std::span<const CandidatePair> pairs,
                                       const HomologyGraphConfig& config,
                                       HomologyGraphStats* stats) {
  GPCLUST_CHECK(config.min_score_per_residue >= 0.0,
                "score threshold must be non-negative");
  const bool device = config.verify_backend == VerifyBackend::DeviceBatched;
  const bool simd = config.verify_backend == VerifyBackend::HostSimd;
  GPCLUST_CHECK(!device || config.device_verify.context != nullptr,
                "DeviceBatched verification needs a DeviceContext");
  obs::Tracer* tracer = config.tracer;
  // Without an identity gate a verdict only needs "score >= T", so the
  // accept tier may decide it and the SIMD kernel may stop at T.
  const bool decide_only = config.min_identity <= 0.0;
  Fanout fanout(config.num_threads);

  // Stage 2 — CPU prefilter (host-measured; this is the CPU side of the
  // critical-path split reported against the modeled device verify).
  HomologyGraphStats totals;
  std::vector<u8> accepted(pairs.size(), 0);
  Undecided undecided;
  {
    obs::HostSpan span(tracer, "homology.prefilter");
    util::WallTimer timer;
    undecided = classify_candidates(sequences, pairs, config,
                                    /*accept_tier=*/decide_only, fanout,
                                    accepted, totals);
    totals.prefilter_host_s = timer.seconds();
  }
  const std::vector<u32>& todo = undecided.pairs;
  obs::add_counter(tracer, "homology_surviving_pairs",
                   totals.num_surviving_pairs);
  obs::add_counter(tracer, "homology_exact_accepts", totals.num_exact_accepts);

  // Stage 3 — batched score-only verification of the undecided pairs on
  // the configured backend, then the (host-side) edge gate over the scores.

  // The SIMD kernel consumes residue indices; encode each target once up
  // front instead of per pair.
  std::vector<std::vector<u8>> encoded;
  if (simd) {
    encoded.resize(sequences.size());
    for (const u32 i : todo) {
      const std::string& r = sequences[pairs[i].b].residues;
      std::vector<u8>& e = encoded[pairs[i].b];
      if (e.size() == r.size()) continue;
      e.resize(r.size());
      for (std::size_t j = 0; j < r.size(); ++j) {
        e[j] = seq::residue_index(r[j]);
      }
    }
  }

  auto threshold_of = [&](const CandidatePair& p) {
    return edge_score_threshold(sequences[p.a].residues.size(),
                                sequences[p.b].residues.size(),
                                config.min_score, config.min_score_per_residue);
  };

  // Shared edge gate: the score threshold, then the optional identity
  // traceback resumed from the score pass's end cell. `from_end` keeps the
  // SIMD and device paths on the banded-prefix traceback; the scalar path
  // keeps the full-matrix reference traceback (both reproduce the optimal
  // score; the suites pin their agreement).
  auto gate = [&](std::size_t pair_index, const AlignmentResult& result,
                  bool from_end, std::size_t& traced_runs) {
    const auto& p = pairs[pair_index];
    if (result.score < threshold_of(p)) return;
    if (!decide_only) {
      const auto& a = sequences[p.a].residues;
      const auto& b = sequences[p.b].residues;
      ++traced_runs;
      const auto traced = from_end
                              ? traced_from_end(a, b, result, config.alignment)
                              : smith_waterman_traced(a, b, config.alignment);
      if (traced.identity() < config.min_identity) return;
    }
    accepted[pair_index] = 1;
  };

  if (device) {
    VerifyDeviceStats device_stats;
    const auto scores = device_score_pairs(
        *config.device_verify.context, sequences, pairs, todo,
        config.alignment, config.device_verify, tracer, &device_stats);
    totals.device = device_stats;
    // Each undecided pair is scored exactly once regardless of batch
    // retries/replans (commits are transactional), matching the host
    // backends' per-pair attribution.
    totals.num_score_alignments += todo.size();
    obs::HostSpan span(tracer, "homology.verify.gate");
    for (std::size_t k = 0; k < todo.size(); ++k) {
      AlignmentResult result;
      result.score = scores[k].score;
      result.a_end = scores[k].a_end;
      result.b_end = scores[k].b_end;
      gate(todo[k], result, /*from_end=*/true, totals.num_traced_alignments);
    }
  } else {
    std::mutex totals_mutex;
    auto verify = [&](std::size_t lo, std::size_t hi) {
      // Per-worker state: pairs arrive sorted by query id, so a
      // single-slot profile cache serves nearly every pair in the chunk.
      LruQueryProfileCache cache(1);
      SimdCounters simd_counters;
      std::size_t traced_runs = 0;
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t i = todo[k];
        const auto& p = pairs[i];
        const auto& a = sequences[p.a].residues;
        AlignmentResult result;
        if (simd) {
          // The floor steers the kernel's lane width; without an identity
          // gate the kernel stops once the running best reaches T.
          result = smith_waterman_simd(
              cache.get(p.a, a), encoded[p.b], config.alignment,
              &simd_counters, undecided.floors[k],
              decide_only ? threshold_of(p) : kNoStopScore);
        } else {
          result = smith_waterman(a, sequences[p.b].residues, config.alignment);
        }
        gate(i, result, /*from_end=*/simd, traced_runs);
      }
      const std::lock_guard<std::mutex> lock(totals_mutex);
      totals.num_score_alignments += hi - lo;
      totals.num_traced_alignments += traced_runs;
      totals.simd += simd_counters;
    };
    obs::HostSpan span(tracer, "homology.verify");
    fanout(todo.size(), verify);
  }

  totals.num_candidate_pairs = pairs.size();
  totals.num_alignments =
      totals.num_score_alignments + totals.num_traced_alignments;
  obs::add_counter(tracer, "homology_alignments", totals.num_alignments);
  obs::add_counter(tracer, "homology_prefilter_rejects",
                   totals.num_exact_rejects + totals.num_heuristic_rejects);
  if (stats != nullptr) *stats = totals;
  return accepted;
}

graph::CsrGraph build_homology_graph(const seq::SequenceSet& sequences,
                                     const HomologyGraphConfig& config,
                                     HomologyGraphStats* stats) {
  obs::Tracer* tracer = config.tracer;

  // Stage 1 — candidate stream.
  std::vector<CandidatePair> pairs;
  std::size_t seed_peak_bytes = 0;
  {
    obs::HostSpan span(tracer, "homology.seed");
    switch (config.seed_mode) {
      case SeedMode::MaximalMatch:
        pairs = find_candidate_pairs_suffix_array(sequences,
                                                  config.maximal_matches);
        break;
      case SeedMode::MinHashLsh:
        pairs = find_candidate_pairs_lsh(sequences, config.lsh, tracer,
                                         &seed_peak_bytes);
        break;
      case SeedMode::KmerCount:
        pairs = find_candidate_pairs(sequences, config.seeds,
                                     &seed_peak_bytes);
        break;
    }
  }
  obs::add_counter(tracer, "homology_candidate_pairs", pairs.size());
  obs::raise_counter(tracer, "homology_seed_peak_candidate_bytes",
                     seed_peak_bytes);

  // Stages 2 + 3 — shared with the ingest subsystem's incremental path.
  HomologyGraphStats totals;
  const std::vector<u8> accepted =
      verify_candidate_pairs(sequences, pairs, config, &totals);
  totals.seed_peak_candidate_bytes = seed_peak_bytes;

  graph::CsrGraph result;
  {
    obs::HostSpan span(tracer, "homology.graph");
    graph::EdgeList edges(sequences.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (accepted[i]) edges.add(pairs[i].a, pairs[i].b);
    }
    totals.num_edges = edges.raw_size();
    result = graph::CsrGraph::from_edge_list(std::move(edges));
  }
  obs::add_counter(tracer, "homology_edges", totals.num_edges);
  if (stats != nullptr) *stats = totals;
  return result;
}

}  // namespace gpclust::align
