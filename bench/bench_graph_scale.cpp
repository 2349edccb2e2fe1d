// Graph-construction scaling: the banded MinHash/LSH seed stage
// (DESIGN.md §14) against the exact k-mer postings path, on a planted
// family-model metagenome. Three sections:
//
//   * baseline (scale 1): the exact path (ground-truth edge set + its
//     measured peak candidate bytes), the SpGEMM ablation (its candidates
//     fed straight to verify_candidate_pairs; must emit a bit-identical
//     graph — a labeled ablation, not a seed mode), and the
//     MinHash/LSH path at the default operating point (planted-family
//     edge recall against the exact edge set, src/eval/edge_recall).
//   * recall/speed frontier: a (bands, rows) sweep at scale 1 — recall vs
//     seed+verify cost (the EXPERIMENTS.md frontier table).
//   * scale sweep: MinHash/LSH full builds at growing family counts, with
//     exact-path *seed-stage-only* peak bytes alongside. The driver
//     asserts the headline: at the largest scale (>= 10x the baseline
//     vertex count) the LSH stage's measured peak candidate bytes stay
//     within the exact path's scale-1 budget.
//
// All timings are HOST-MEASURED wall seconds (the seed/sketch/verify
// phases come from the obs tracer's host spans); peak candidate bytes are
// size-based live-buffer high-water marks, deterministic by construction.
//
// Flags: --quick (small sweep for CI smoke), --families=N (scale-1 family
//        count), --seed=N (family-model seed), --reps=N (baseline
//        best-of-N), --scale-max=N (largest family-count multiplier),
//        --lsh-bands=N / --lsh-rows=N (MinHash operating point),
//        --json=PATH (machine-readable results, docs/bench_json.md).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "align/homology_graph.hpp"
#include "align/spgemm_seeds.hpp"
#include "eval/edge_recall.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "seq/family_model.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace gpclust {
namespace {

seq::SyntheticMetagenome make_workload(std::size_t num_families, u64 seed) {
  seq::FamilyModelConfig mcfg;
  mcfg.num_families = num_families;
  // Larger families than the alignment bench: the exact path's per-seed
  // expansion is quadratic in members per family, which is exactly the
  // regime the sketch stage exists for (and the paper's survey data
  // shows: few large families dominate the pair volume).
  mcfg.min_members = 8;
  mcfg.max_members = 48;
  mcfg.num_background_orfs = num_families * 2;
  mcfg.seed = seed;
  return seq::generate_metagenome(mcfg);
}

struct BuildRow {
  double seed_s = 0;    ///< host: stage-1 span (includes sketching)
  double sketch_s = 0;  ///< host: signature sketching sub-span (LSH only)
  double verify_s = 0;  ///< host: stage-3 span
  align::HomologyGraphStats stats;
  graph::CsrGraph graph;
};

BuildRow run_build(const seq::SequenceSet& sequences,
                   align::HomologyGraphConfig config, int reps) {
  BuildRow out;
  // Best-of-N: the host is shared with other work.
  for (int rep = 0; rep < reps; ++rep) {
    obs::Tracer tracer;
    config.tracer = &tracer;
    config.num_threads = 1;  // single-threaded: keep timings comparable
    BuildRow run;
    run.graph = align::build_homology_graph(sequences, config, &run.stats);
    run.seed_s = tracer.host_total("homology.seed").value;
    run.sketch_s = tracer.host_total("homology.sketch").value;
    run.verify_s = tracer.host_total("homology.verify").value;
    if (rep == 0 || run.seed_s + run.verify_s < out.seed_s + out.verify_s) {
      out = std::move(run);
    }
  }
  return out;
}

/// The SpGEMM ablation of the exact seed stage, verified through the
/// cascade's stages 2 + 3 like any seed mode's candidates.
BuildRow run_spgemm(const seq::SequenceSet& sequences,
                    align::HomologyGraphConfig config) {
  BuildRow out;
  obs::Tracer tracer;
  config.tracer = &tracer;
  config.num_threads = 1;
  std::vector<align::CandidatePair> pairs;
  std::size_t peak = 0;
  {
    obs::HostSpan span(&tracer, "homology.seed");
    pairs = align::find_candidate_pairs_spgemm(sequences, config.seeds, &peak);
  }
  const std::vector<u8> accepted =
      align::verify_candidate_pairs(sequences, pairs, config, &out.stats);
  out.stats.seed_peak_candidate_bytes = peak;
  graph::EdgeList edges(sequences.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (accepted[i]) edges.add(pairs[i].a, pairs[i].b);
  }
  out.stats.num_edges = edges.raw_size();
  out.graph = graph::CsrGraph::from_edge_list(std::move(edges));
  out.seed_s = tracer.host_total("homology.seed").value;
  out.verify_s = tracer.host_total("homology.verify").value;
  return out;
}

}  // namespace
}  // namespace gpclust

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const int reps = args.get_int("reps", quick ? 2 : 3);
  const auto base_families =
      static_cast<std::size_t>(args.get_int("families", quick ? 10 : 30));
  const u64 seed = static_cast<u64>(args.get_int("seed", 7));
  const auto scale_max =
      static_cast<std::size_t>(args.get_int("scale-max", 12));

  align::HomologyGraphConfig base_cfg;  // KmerCount + HostSimd defaults
  align::HomologyGraphConfig lsh_cfg = base_cfg;
  lsh_cfg.seed_mode = align::SeedMode::MinHashLsh;
  lsh_cfg.lsh.num_bands = static_cast<u64>(
      args.get_int("lsh-bands", static_cast<int>(lsh_cfg.lsh.num_bands)));
  lsh_cfg.lsh.rows_per_band = static_cast<u64>(
      args.get_int("lsh-rows", static_cast<int>(lsh_cfg.lsh.rows_per_band)));

  const auto mg = make_workload(base_families, seed);
  std::size_t residues = 0;
  for (const auto& s : mg.sequences) residues += s.residues.size();
  std::printf(
      "workload: %zu families, %zu sequences, %zu residues (seed %llu)\n",
      base_families, mg.sequences.size(), residues,
      static_cast<unsigned long long>(seed));
  std::printf("all times host-measured wall seconds; peak bytes are "
              "size-based live-buffer high-water marks\n\n");

  // --- baseline (scale 1) ---------------------------------------------
  const auto exact = run_build(mg.sequences, base_cfg, reps);

  const auto spgemm = run_spgemm(mg.sequences, base_cfg);
  GPCLUST_CHECK(spgemm.graph.digest() == exact.graph.digest(),
                "SpGEMM ablation produced a different edge set");

  const auto minhash = run_build(mg.sequences, lsh_cfg, reps);
  const auto base_recall = eval::planted_edge_recall(
      minhash.graph, exact.graph, mg.family,
      static_cast<u32>(mg.num_families));
  GPCLUST_CHECK(base_recall.recall() >= 0.95,
                "MinHash default operating point fell below 0.95 recall");

  std::printf("baseline (scale 1, %zu truth intra-family edges):\n",
              base_recall.truth_intra_edges);
  std::printf("  exact    %6zu cand  %6zu edges  seed %.3f s  verify %.3f s"
              "  peak %9zu B\n",
              exact.stats.num_candidate_pairs, exact.stats.num_edges,
              exact.seed_s, exact.verify_s,
              exact.stats.seed_peak_candidate_bytes);
  std::printf("  spgemm   %6zu cand  (ablation; bit-identical edges)  "
              "seed %.3f s  peak %9zu B\n",
              spgemm.stats.num_candidate_pairs, spgemm.seed_s,
              spgemm.stats.seed_peak_candidate_bytes);
  std::printf("  minhash  %6zu cand  %6zu edges  seed %.3f s (sketch %.3f) "
              " verify %.3f s  peak %9zu B  recall %.4f\n\n",
              minhash.stats.num_candidate_pairs, minhash.stats.num_edges,
              minhash.seed_s, minhash.sketch_s, minhash.verify_s,
              minhash.stats.seed_peak_candidate_bytes, base_recall.recall());

  // --- recall/speed frontier (scale 1) --------------------------------
  struct FrontierPoint {
    u64 bands, rows;
  };
  std::vector<FrontierPoint> grid;
  if (quick) {
    grid = {{16, 1}, {32, 1}, {32, 2}};
  } else {
    grid = {{8, 1}, {16, 1}, {24, 1}, {32, 1}, {48, 1}, {16, 2}, {32, 2}};
  }
  struct FrontierRow {
    u64 bands, rows;
    std::size_t candidates, edges, peak_bytes;
    double recall, seed_s, verify_s;
  };
  std::vector<FrontierRow> frontier;
  std::printf("recall/speed frontier (scale 1):\n");
  std::printf("  bands rows   cand   edges  recall    seed_s  verify_s"
              "      peak_B\n");
  for (const auto& point : grid) {
    align::HomologyGraphConfig cfg = lsh_cfg;
    cfg.lsh.num_bands = point.bands;
    cfg.lsh.rows_per_band = point.rows;
    const auto row = run_build(mg.sequences, cfg, 1);
    const auto rc = eval::planted_edge_recall(
        row.graph, exact.graph, mg.family,
        static_cast<u32>(mg.num_families));
    frontier.push_back({point.bands, point.rows,
                        row.stats.num_candidate_pairs, row.stats.num_edges,
                        row.stats.seed_peak_candidate_bytes, rc.recall(),
                        row.seed_s, row.verify_s});
    std::printf("  %5llu %4llu %6zu  %6zu  %.4f  %8.3f  %8.3f  %10zu\n",
                static_cast<unsigned long long>(point.bands),
                static_cast<unsigned long long>(point.rows),
                row.stats.num_candidate_pairs, row.stats.num_edges,
                rc.recall(), row.seed_s, row.verify_s,
                row.stats.seed_peak_candidate_bytes);
  }
  std::printf("\n");

  // --- scale sweep ----------------------------------------------------
  std::vector<std::size_t> scales = quick
                                        ? std::vector<std::size_t>{1, 4}
                                        : std::vector<std::size_t>{1, 2, 4};
  scales.push_back(scale_max);
  struct ScaleRow {
    std::size_t scale, sequences, minhash_candidates, minhash_edges;
    std::size_t minhash_peak_bytes, exact_candidates, exact_peak_bytes;
    double minhash_seed_s, minhash_verify_s, exact_seed_s;
  };
  std::vector<ScaleRow> sweep;
  std::printf("scale sweep (minhash full build; exact path seed stage "
              "only):\n");
  std::printf("  scale   seqs    cand   edges   lsh_peak_B     seed_s"
              "  verify_s | exact_cand  exact_peak_B\n");
  for (const std::size_t scale : scales) {
    const auto wl = scale == 1 ? mg : make_workload(base_families * scale,
                                                    seed);
    const auto row = run_build(wl.sequences, lsh_cfg, 1);
    util::WallTimer exact_timer;
    std::size_t exact_peak = 0;
    const auto exact_pairs =
        align::find_candidate_pairs(wl.sequences, base_cfg.seeds, &exact_peak);
    const double exact_seed_s = exact_timer.seconds();
    sweep.push_back({scale, wl.sequences.size(),
                     row.stats.num_candidate_pairs, row.stats.num_edges,
                     row.stats.seed_peak_candidate_bytes, exact_pairs.size(),
                     exact_peak, row.seed_s, row.verify_s, exact_seed_s});
    std::printf("  %5zu  %5zu  %6zu  %6zu  %11zu  %9.3f  %8.3f | %10zu  "
                "%12zu\n",
                scale, wl.sequences.size(), row.stats.num_candidate_pairs,
                row.stats.num_edges, row.stats.seed_peak_candidate_bytes,
                row.seed_s, row.verify_s, exact_pairs.size(), exact_peak);
  }
  std::printf("\n");

  // --- the headline: >= 10x vertices within the scale-1 exact budget ---
  const auto& top = sweep.back();
  const double vertex_ratio = static_cast<double>(top.sequences) /
                              static_cast<double>(mg.sequences.size());
  const std::size_t budget = exact.stats.seed_peak_candidate_bytes;
  GPCLUST_CHECK(vertex_ratio >= 10.0,
                "largest scale is not a 10x-larger graph");
  GPCLUST_CHECK(top.minhash_peak_bytes <= budget,
                "LSH peak candidate bytes exceeded the scale-1 exact budget");
  std::printf("headline: %.1fx vertices (%zu -> %zu) built with peak "
              "candidate bytes %zu <= scale-1 exact budget %zu (%.2fx)\n",
              vertex_ratio, mg.sequences.size(), top.sequences,
              top.minhash_peak_bytes, budget,
              static_cast<double>(top.minhash_peak_bytes) /
                  static_cast<double>(budget));

  const auto json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    std::vector<obs::json::Value> frontier_json;
    for (const auto& f : frontier) {
      frontier_json.push_back(obs::json::object({
          {"bands", obs::json::number(static_cast<double>(f.bands))},
          {"rows", obs::json::number(static_cast<double>(f.rows))},
          {"candidates",
           obs::json::number(static_cast<double>(f.candidates))},
          {"edges", obs::json::number(static_cast<double>(f.edges))},
          {"recall", obs::json::number(f.recall)},
          {"peak_candidate_bytes",
           obs::json::number(static_cast<double>(f.peak_bytes))},
          {"seed_s", obs::json::number(f.seed_s)},
          {"verify_s", obs::json::number(f.verify_s)},
      }));
    }
    std::vector<obs::json::Value> sweep_json;
    for (const auto& r : sweep) {
      sweep_json.push_back(obs::json::object({
          {"scale", obs::json::number(static_cast<double>(r.scale))},
          {"sequences", obs::json::number(static_cast<double>(r.sequences))},
          {"minhash_candidates",
           obs::json::number(static_cast<double>(r.minhash_candidates))},
          {"minhash_edges",
           obs::json::number(static_cast<double>(r.minhash_edges))},
          {"minhash_peak_candidate_bytes",
           obs::json::number(static_cast<double>(r.minhash_peak_bytes))},
          {"exact_candidates",
           obs::json::number(static_cast<double>(r.exact_candidates))},
          {"exact_peak_candidate_bytes",
           obs::json::number(static_cast<double>(r.exact_peak_bytes))},
          {"minhash_seed_s", obs::json::number(r.minhash_seed_s)},
          {"minhash_verify_s", obs::json::number(r.minhash_verify_s)},
          {"exact_seed_s", obs::json::number(r.exact_seed_s)},
      }));
    }
    const auto doc = obs::json::object({
        {"bench", obs::json::string("graph_scale")},
        {"time_domain", obs::json::string("host_measured")},
        {"workload",
         obs::json::object({
             {"families",
              obs::json::number(static_cast<double>(base_families))},
             {"sequences",
              obs::json::number(static_cast<double>(mg.sequences.size()))},
             {"residues", obs::json::number(static_cast<double>(residues))},
             {"seed", obs::json::number(static_cast<double>(seed))},
             {"lsh_bands",
              obs::json::number(static_cast<double>(lsh_cfg.lsh.num_bands))},
             {"lsh_rows", obs::json::number(static_cast<double>(
                              lsh_cfg.lsh.rows_per_band))},
         })},
        {"baseline",
         obs::json::object({
             {"exact",
              obs::json::object({
                  {"candidates",
                   obs::json::number(static_cast<double>(
                       exact.stats.num_candidate_pairs))},
                  {"edges", obs::json::number(static_cast<double>(
                                exact.stats.num_edges))},
                  {"peak_candidate_bytes",
                   obs::json::number(static_cast<double>(
                       exact.stats.seed_peak_candidate_bytes))},
                  {"seed_s", obs::json::number(exact.seed_s)},
                  {"verify_s", obs::json::number(exact.verify_s)},
              })},
             {"spgemm_ablation",
              obs::json::object({
                  {"candidates",
                   obs::json::number(static_cast<double>(
                       spgemm.stats.num_candidate_pairs))},
                  {"peak_candidate_bytes",
                   obs::json::number(static_cast<double>(
                       spgemm.stats.seed_peak_candidate_bytes))},
                  {"seed_s", obs::json::number(spgemm.seed_s)},
                  {"edges_bit_identical", obs::json::number(1)},
              })},
             {"minhash",
              obs::json::object({
                  {"candidates",
                   obs::json::number(static_cast<double>(
                       minhash.stats.num_candidate_pairs))},
                  {"edges", obs::json::number(static_cast<double>(
                                minhash.stats.num_edges))},
                  {"recall", obs::json::number(base_recall.recall())},
                  {"peak_candidate_bytes",
                   obs::json::number(static_cast<double>(
                       minhash.stats.seed_peak_candidate_bytes))},
                  {"seed_s", obs::json::number(minhash.seed_s)},
                  {"sketch_s", obs::json::number(minhash.sketch_s)},
                  {"verify_s", obs::json::number(minhash.verify_s)},
              })},
         })},
        {"frontier", obs::json::array(std::move(frontier_json))},
        {"scale_sweep", obs::json::array(std::move(sweep_json))},
        {"budget",
         obs::json::object({
             {"exact_base_peak_candidate_bytes",
              obs::json::number(static_cast<double>(budget))},
             {"minhash_top_peak_candidate_bytes",
              obs::json::number(static_cast<double>(
                  top.minhash_peak_bytes))},
             {"vertex_scale_factor", obs::json::number(vertex_ratio)},
             {"within_budget", obs::json::number(1)},
         })},
    });
    std::ofstream out(json_path);
    GPCLUST_CHECK(out.good(), "cannot open --json file");
    out << obs::json::dump(doc) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
