// Alignment-verification throughput: the three verify backends of
// build_homology_graph (scalar reference, striped SIMD fast path, and the
// device-batched cascade) on a synthetic family-model metagenome. Host
// rows are HOST-MEASURED wall time (the verify timings are the obs
// tracer's "homology.prefilter" plus "homology.verify" spans: stage 2
// decides most pairs, stage 3 scores the rest); the device row's
// kernel/transfer seconds are MODELED SimTimeline time and are always
// printed with a "modeled" label, never mixed into a host number.
//
// The driver asserts all backends emit bit-identical edge sets before
// reporting any throughput, and also times the seed stage's sort-based
// pair counting against the previous hash-map formulation (kept here as a
// reference implementation).
//
// Flags: --quick (tiny run for CI smoke), --families=N (workload scale),
//        --seed=N (family-model seed), --reps=N (verify best-of-N),
//        --streams=K (device-verify pipeline streams, default 2),
//        --prefilter (add an opt-in heuristic-prefilter row; its edge
//        set may differ — labeled),
//        --json=PATH (machine-readable results, docs/bench_json.md).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "align/homology_graph.hpp"
#include "device/device_context.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "seq/alphabet.hpp"
#include "seq/family_model.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace gpclust {
namespace {

/// The pre-PR pair-counting loop (hash map keyed by packed pair), kept as
/// the reference the sort-based production path is benchmarked against.
/// Counts only — the production path additionally carries seed diagonals.
std::size_t map_based_pair_count(const seq::SequenceSet& sequences,
                                 const align::KmerIndexConfig& config) {
  std::unordered_map<u64, std::vector<u32>> postings;
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const std::string& r = sequences[i].residues;
    if (r.size() < config.k) continue;
    std::vector<u64> kmers;
    for (std::size_t pos = 0; pos + config.k <= r.size(); ++pos) {
      u64 code = 0;
      for (std::size_t j = 0; j < config.k; ++j) {
        code = code * seq::kNumResidues + seq::residue_index(r[pos + j]);
      }
      kmers.push_back(code);
    }
    std::sort(kmers.begin(), kmers.end());
    kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());
    for (u64 kmer : kmers) postings[kmer].push_back(static_cast<u32>(i));
  }
  std::unordered_map<u64, u32> pair_counts;
  for (const auto& [kmer, seqs] : postings) {
    if (seqs.size() < 2 || seqs.size() > config.max_kmer_occurrences) continue;
    for (std::size_t x = 0; x < seqs.size(); ++x) {
      for (std::size_t y = x + 1; y < seqs.size(); ++y) {
        ++pair_counts[(static_cast<u64>(seqs[x]) << 32) | seqs[y]];
      }
    }
  }
  std::size_t promoted = 0;
  for (const auto& [key, count] : pair_counts) {
    if (count >= config.min_shared_kmers) ++promoted;
  }
  return promoted;
}

struct VerifyRun {
  double seed_s = 0;
  double verify_s = 0;
  std::size_t edges = 0;
  align::HomologyGraphStats stats;
  graph::CsrGraph graph;
};

VerifyRun run_build(const seq::SequenceSet& sequences,
                    align::HomologyGraphConfig config, int reps) {
  VerifyRun out;
  // Best-of-N verify time: the host is shared with other work, so a
  // single run can be 20% off.
  for (int rep = 0; rep < reps; ++rep) {
    obs::Tracer tracer;
    config.tracer = &tracer;
    config.num_threads = 1;  // single-threaded: keep timings comparable
    VerifyRun run;
    run.graph = align::build_homology_graph(sequences, config, &run.stats);
    run.seed_s = tracer.host_total("homology.seed").value;
    run.verify_s = (tracer.host_total("homology.prefilter") +
                    tracer.host_total("homology.verify"))
                       .value;
    run.edges = run.graph.num_edges();
    if (rep == 0 || run.verify_s < out.verify_s) out = std::move(run);
  }
  return out;
}

}  // namespace
}  // namespace gpclust

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const bool with_prefilter = args.get_bool("prefilter", false);
  const int reps = args.get_int("reps", quick ? 2 : 3);

  seq::FamilyModelConfig mcfg;
  mcfg.num_families =
      static_cast<std::size_t>(args.get_int("families", quick ? 10 : 60));
  mcfg.min_members = 4;
  mcfg.max_members = quick ? 8 : 20;
  mcfg.substitution_rate = 0.12;
  mcfg.indel_rate = 0.02;
  mcfg.num_background_orfs = mcfg.num_families * 2;
  mcfg.seed = static_cast<u64>(args.get_int("seed", 1234));
  const auto mg = seq::generate_metagenome(mcfg);

  std::size_t residues = 0;
  for (const auto& s : mg.sequences) residues += s.residues.size();
  std::printf("workload: %zu sequences, %zu residues (family model, seed %llu)\n",
              mg.sequences.size(), residues,
              static_cast<unsigned long long>(mcfg.seed));
  std::printf("host rows are host-measured wall seconds; the device row "
              "labels its modeled seconds explicitly\n\n");

  align::HomologyGraphConfig scalar_cfg;
  scalar_cfg.verify_backend = align::VerifyBackend::HostScalar;
  align::HomologyGraphConfig simd_cfg;
  simd_cfg.verify_backend = align::VerifyBackend::HostSimd;

  const auto scalar = run_build(mg.sequences, scalar_cfg, reps);
  const auto simd = run_build(mg.sequences, simd_cfg, reps);

  // Device-batched backend: one run (its kernel/transfer seconds are
  // modeled, hence deterministic; only the pack/prefilter host seconds
  // vary, and they are reported as-is).
  device::DeviceContext ctx(device::DeviceSpec::tesla_k20());
  align::HomologyGraphConfig device_cfg;
  device_cfg.verify_backend = align::VerifyBackend::DeviceBatched;
  device_cfg.device_verify.context = &ctx;
  device_cfg.device_verify.num_streams =
      static_cast<std::size_t>(args.get_int("streams", 2));
  const auto dev = run_build(mg.sequences, device_cfg, 1);

  // The fast paths must be invisible in the output before they are allowed
  // to be fast: bit-identical edge sets or the bench aborts.
  GPCLUST_CHECK(scalar.graph.adjacency() == simd.graph.adjacency() &&
                    scalar.graph.offsets() == simd.graph.offsets(),
                "SIMD and scalar verification produced different graphs");
  GPCLUST_CHECK(dev.graph.adjacency() == scalar.graph.adjacency() &&
                    dev.graph.offsets() == scalar.graph.offsets(),
                "device-batched verification produced a different graph");
  GPCLUST_CHECK(ctx.arena().used() == 0 && ctx.arena().num_allocations() == 0,
                "device arena not empty after the verify runs");

  const double pairs =
      static_cast<double>(simd.stats.num_candidate_pairs -
                          simd.stats.num_exact_rejects);
  std::printf("verification (%.0f surviving pairs: %zu exact accepts, %zu "
              "score DPs; %zu edges):\n",
              pairs, simd.stats.num_exact_accepts,
              simd.stats.num_score_alignments, simd.edges);
  std::printf("  scalar   verify %.3f s  (%.0f pairs/s)\n", scalar.verify_s,
              pairs / scalar.verify_s);
  std::printf("  simd     verify %.3f s  (%.0f pairs/s)  speedup %.2fx\n",
              simd.verify_s, pairs / simd.verify_s,
              scalar.verify_s / simd.verify_s);
  std::printf("  simd resolution: %llu x 8-bit, %llu x 16-bit rescue, "
              "%llu scalar fallback (%llu stopped at the threshold)\n\n",
              static_cast<unsigned long long>(simd.stats.simd.runs_8bit),
              static_cast<unsigned long long>(simd.stats.simd.rescues_16bit),
              static_cast<unsigned long long>(simd.stats.simd.scalar_fallbacks),
              static_cast<unsigned long long>(simd.stats.simd.early_stops));

  const auto& dstats = dev.stats.device;
  std::printf("  device-batched cascade (%zu batches, %zu lanes) — CPU side "
              "host-measured, device side MODELED:\n",
              dstats.num_batches, dstats.num_lanes);
  std::printf("    cpu prefilter %.4f s + pack %.4f s (host) | verify "
              "makespan %.4f s (modeled)\n",
              dev.stats.prefilter_host_s, dstats.pack_host_s,
              dstats.makespan_modeled_s);
  std::printf("    exposed critical path (modeled, sums to makespan): kernel "
              "%.4f s | h2d %.4f s | d2h %.4f s\n\n",
              dstats.kernel_exposed_modeled_s, dstats.h2d_exposed_modeled_s,
              dstats.d2h_exposed_modeled_s);

  // Seed stage: sort-based counting (production) vs the previous hash-map
  // loop. Same promoted-pair count by construction; checked anyway.
  double map_s = 0;
  std::size_t map_pairs = 0;
  for (int rep = 0; rep < reps; ++rep) {
    util::WallTimer map_timer;
    map_pairs = map_based_pair_count(mg.sequences, align::KmerIndexConfig{});
    const double s = map_timer.seconds();
    if (rep == 0 || s < map_s) map_s = s;
  }
  double sort_s = 0;
  std::vector<align::CandidatePair> sorted_pairs;
  for (int rep = 0; rep < reps; ++rep) {
    util::WallTimer sort_timer;
    sorted_pairs =
        align::find_candidate_pairs(mg.sequences, align::KmerIndexConfig{});
    const double s = sort_timer.seconds();
    if (rep == 0 || s < sort_s) sort_s = s;
  }
  GPCLUST_CHECK(map_pairs == sorted_pairs.size(),
                "sort-based pair counting disagrees with the map reference");
  std::printf("seed pair counting (%zu promoted pairs):\n", map_pairs);
  std::printf("  hash-map reference %.3f s\n", map_s);
  std::printf("  sort-based         %.3f s  speedup %.2fx\n\n", sort_s,
              map_s / sort_s);

  if (with_prefilter) {
    align::HomologyGraphConfig pf_cfg = simd_cfg;
    pf_cfg.prefilter.enabled = true;
    pf_cfg.prefilter.min_shared_seeds = 3;
    const auto pf = run_build(mg.sequences, pf_cfg, reps);
    std::printf("heuristic prefilter (opt-in, NOT edge-preserving):\n");
    std::printf("  verify %.3f s, %zu edges (default-path edges: %zu), "
                "%zu pairs skipped\n",
                pf.verify_s, pf.edges, simd.edges,
                pf.stats.num_heuristic_rejects);
  }

  const auto json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    const auto doc = obs::json::object({
        {"bench", obs::json::string("alignment")},
        {"time_domain", obs::json::string("mixed_labeled")},
        {"workload",
         obs::json::object({
             {"sequences",
              obs::json::number(static_cast<double>(mg.sequences.size()))},
             {"residues", obs::json::number(static_cast<double>(residues))},
             {"seed", obs::json::number(static_cast<double>(mcfg.seed))},
         })},
        {"verify",
         obs::json::object({
             {"surviving_pairs", obs::json::number(pairs)},
             {"exact_accepts",
              obs::json::number(
                  static_cast<double>(simd.stats.num_exact_accepts))},
             {"edges", obs::json::number(static_cast<double>(simd.edges))},
             {"scalar_s", obs::json::number(scalar.verify_s)},
             {"simd_s", obs::json::number(simd.verify_s)},
             {"simd_speedup",
              obs::json::number(scalar.verify_s / simd.verify_s)},
             {"runs_8bit",
              obs::json::number(
                  static_cast<double>(simd.stats.simd.runs_8bit))},
             {"rescues_16bit",
              obs::json::number(
                  static_cast<double>(simd.stats.simd.rescues_16bit))},
             {"scalar_fallbacks",
              obs::json::number(
                  static_cast<double>(simd.stats.simd.scalar_fallbacks))},
         })},
        {"verify_device",
         obs::json::object({
             {"batches",
              obs::json::number(static_cast<double>(dstats.num_batches))},
             {"lanes",
              obs::json::number(static_cast<double>(dstats.num_lanes))},
             {"prefilter_host_s",
              obs::json::number(dev.stats.prefilter_host_s)},
             {"pack_host_s", obs::json::number(dstats.pack_host_s)},
             {"makespan_modeled_s",
              obs::json::number(dstats.makespan_modeled_s)},
             {"kernel_exposed_modeled_s",
              obs::json::number(dstats.kernel_exposed_modeled_s)},
             {"h2d_exposed_modeled_s",
              obs::json::number(dstats.h2d_exposed_modeled_s)},
             {"d2h_exposed_modeled_s",
              obs::json::number(dstats.d2h_exposed_modeled_s)},
         })},
        {"seed_pairs",
         obs::json::object({
             {"promoted_pairs",
              obs::json::number(static_cast<double>(map_pairs))},
             {"hash_map_s", obs::json::number(map_s)},
             {"sort_based_s", obs::json::number(sort_s)},
             {"sort_speedup", obs::json::number(map_s / sort_s)},
         })},
    });
    std::ofstream out(json_path);
    GPCLUST_CHECK(out.good(), "cannot open --json file");
    out << obs::json::dump(doc) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
