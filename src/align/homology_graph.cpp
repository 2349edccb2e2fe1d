#include "align/homology_graph.hpp"

#include <algorithm>
#include <mutex>

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

/// X-drop used when scanning a seed diagonal purely to pick the SIMD
/// kernel's starting lane width (generous: a better floor skips more
/// doomed 8-bit passes; any value is correct).
constexpr int kDispatchXdrop = 1 << 20;

/// Stage 2 — the exact admissible tier (always on; provably cannot change
/// the edge set) followed by the opt-in heuristic tier. Returns the
/// indices of the surviving pairs, in candidate-stream order, so every
/// backend scores the identical pair list and the reject counters are
/// attributed identically no matter where stage 3 runs.
std::vector<u32> prefilter_candidates(const seq::SequenceSet& sequences,
                                      std::span<const CandidatePair> pairs,
                                      const HomologyGraphConfig& config,
                                      HomologyGraphStats& totals) {
  std::vector<u32> surviving;
  surviving.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& p = pairs[i];
    const auto& a = sequences[p.a].residues;
    const auto& b = sequences[p.b].residues;
    if (exact_reject(a.size(), b.size(), config.min_score,
                     config.min_score_per_residue)) {
      ++totals.num_exact_rejects;
      continue;
    }
    if (config.prefilter.enabled) {
      if (p.shared_kmers < config.prefilter.min_shared_seeds) {
        ++totals.num_heuristic_rejects;
        continue;
      }
      if (config.prefilter.min_ungapped_score > 0 &&
          ungapped_xdrop_score(a, b, p.diag, config.prefilter.xdrop) <
              config.prefilter.min_ungapped_score) {
        ++totals.num_heuristic_rejects;
        continue;
      }
    }
    surviving.push_back(static_cast<u32>(i));
  }
  return surviving;
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

  // Stage 2 — CPU prefilter (host-measured; this is the CPU side of the
  // critical-path split reported against the modeled device verify).
  HomologyGraphStats totals;
  std::vector<u32> surviving;
  {
    obs::HostSpan span(tracer, "homology.prefilter");
    util::WallTimer timer;
    surviving = prefilter_candidates(sequences, pairs, config, totals);
    totals.prefilter_host_s = timer.seconds();
  }
  totals.num_surviving_pairs = surviving.size();
  obs::add_counter(tracer, "homology_surviving_pairs", surviving.size());

  // Stage 3 — batched score-only verification on the configured backend,
  // then the (host-side) edge gate over the scores.
  std::vector<u8> accepted(pairs.size(), 0);

  // The SIMD kernel consumes residue indices; encode every sequence once
  // up front instead of per pair.
  std::vector<std::vector<u8>> encoded;
  if (simd) {
    encoded.resize(sequences.size());
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      const std::string& r = sequences[i].residues;
      encoded[i].resize(r.size());
      for (std::size_t j = 0; j < r.size(); ++j) {
        encoded[i][j] = seq::residue_index(r[j]);
      }
    }
  }

  // Shared edge gate: score thresholds, then the optional identity
  // traceback resumed from the score pass's end cell. `from_end` keeps the
  // SIMD and device paths on the banded-prefix traceback; the scalar path
  // keeps the full-matrix reference traceback (both reproduce the optimal
  // score; the suites pin their agreement).
  auto gate = [&](std::size_t pair_index, const AlignmentResult& result,
                  bool from_end, std::size_t& traced_runs) {
    const auto& p = pairs[pair_index];
    const auto& a = sequences[p.a].residues;
    const auto& b = sequences[p.b].residues;
    const double needed = config.min_score_per_residue *
                          static_cast<double>(std::min(a.size(), b.size()));
    if (result.score < config.min_score ||
        static_cast<double>(result.score) < needed) {
      return;
    }
    if (config.min_identity > 0.0) {
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
        *config.device_verify.context, sequences, pairs, surviving,
        config.alignment, config.device_verify, tracer, &device_stats);
    totals.device = device_stats;
    // Each surviving pair is scored exactly once regardless of batch
    // retries/replans (commits are transactional), matching the host
    // backends' per-pair attribution.
    totals.num_score_alignments += surviving.size();
    obs::HostSpan span(tracer, "homology.verify.gate");
    for (std::size_t k = 0; k < surviving.size(); ++k) {
      AlignmentResult result;
      result.score = scores[k].score;
      result.a_end = scores[k].a_end;
      result.b_end = scores[k].b_end;
      gate(surviving[k], result, /*from_end=*/true,
           totals.num_traced_alignments);
    }
  } else {
    std::mutex totals_mutex;
    auto verify = [&](std::size_t lo, std::size_t hi) {
      // Per-worker state: pairs arrive sorted by query id, so a
      // single-slot profile cache serves nearly every pair in the chunk.
      LruQueryProfileCache cache(1);
      SimdCounters simd_counters;
      std::size_t score_runs = 0;
      std::size_t traced_runs = 0;
      for (std::size_t k = lo; k < hi; ++k) {
        const std::size_t i = surviving[k];
        const auto& p = pairs[i];
        const auto& a = sequences[p.a].residues;
        const auto& b = sequences[p.b].residues;
        AlignmentResult result;
        if (simd) {
          // The ungapped score along the pair's seed diagonal is itself a
          // local alignment, so it lower-bounds the gapped optimum — a
          // floor already inside the 8-bit clipping margin lets the kernel
          // start at 16 bits instead of paying a doomed 8-bit pass.
          const int floor = ungapped_xdrop_score(a, b, p.diag, kDispatchXdrop);
          result = smith_waterman_simd(cache.get(p.a, a), encoded[p.b],
                                       config.alignment, &simd_counters, floor);
        } else {
          result = smith_waterman(a, b, config.alignment);
        }
        ++score_runs;
        gate(i, result, /*from_end=*/simd, traced_runs);
      }
      const std::lock_guard<std::mutex> lock(totals_mutex);
      totals.num_score_alignments += score_runs;
      totals.num_traced_alignments += traced_runs;
      totals.simd += simd_counters;
    };
    obs::HostSpan span(tracer, "homology.verify");
    if (config.num_threads == 1) {
      verify(0, surviving.size());
    } else if (config.num_threads == 0) {
      util::default_thread_pool().parallel_for(0, surviving.size(), verify);
    } else {
      util::ThreadPool pool(config.num_threads);
      pool.parallel_for(0, surviving.size(), verify);
    }
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
