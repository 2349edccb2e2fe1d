// The complete metagenomics protein-family pipeline, end to end — the
// workflow the paper's introduction describes:
//
//   ORF sequences (FASTA)                          [seq::generate_metagenome]
//     -> homology detection: k-mer seeds + Smith-Waterman   [pGraph analog]
//     -> similarity graph
//     -> gpClust dense-subgraph detection          [the paper's algorithm]
//     -> protein family "core sets" + quality report vs the planted truth
//
//   ./metagenome_pipeline [--families=40] [--out-dir=/tmp] [--keep-fasta]

#include <cstdio>
#include <filesystem>

#include "align/homology_graph.hpp"
#include "baseline/gos_kneighbor.hpp"
#include "core/gpclust.hpp"
#include "eval/cluster_stats.hpp"
#include "eval/density.hpp"
#include "eval/partition_metrics.hpp"
#include "seq/family_model.hpp"
#include "seq/fasta.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);

  // --- 1. Sequence data: a synthetic ocean-survey ORF set ---------------
  seq::FamilyModelConfig model;
  model.num_families = static_cast<std::size_t>(args.get_int("families", 40));
  model.min_members = 6;
  model.max_members = 50;
  model.substitution_rate = 0.08;
  model.fragment_min_fraction = 0.7;
  model.num_background_orfs = 3 * model.num_families;
  model.seed = static_cast<u64>(args.get_int("seed", 2013));
  const auto metagenome = seq::generate_metagenome(model);
  std::printf("generated %zu ORFs in %zu families (+%zu background)\n",
              metagenome.sequences.size(), metagenome.num_families,
              model.num_background_orfs);

  // Round-trip through FASTA, as a real pipeline would.
  const auto fasta_path =
      (std::filesystem::path(args.get_string("out-dir", "/tmp")) /
       "metagenome_orfs.fa")
          .string();
  seq::write_fasta(metagenome.sequences, fasta_path);
  const auto sequences = seq::read_fasta(fasta_path);
  if (!args.get_bool("keep-fasta", false)) {
    std::filesystem::remove(fasta_path);
  }

  // --- 2. Homology graph (pGraph analog) --------------------------------
  util::WallTimer homology_timer;
  align::HomologyGraphConfig hcfg;
  // Opt-in heuristic prefilter: skips pairs whose ungapped seed-diagonal
  // score is hopeless. Changes the edge set (unlike the always-on exact
  // filters), so it is off unless requested.
  hcfg.prefilter.enabled = args.get_bool("xdrop-prefilter", false);
  align::HomologyGraphStats hstats;
  const auto graph = align::build_homology_graph(sequences, hcfg, &hstats);
  std::printf("homology graph: %zu candidate pairs -> %zu edges "
              "(%.1fs, Smith-Waterman verified)\n",
              hstats.num_candidate_pairs, graph.num_edges(),
              homology_timer.seconds());
  std::printf("  filter cascade: %zu exact rejects, %zu heuristic rejects, "
              "%zu exact accepts; %zu score DPs (%llu simd-8bit / %llu "
              "simd-16bit / %llu scalar), %zu traced\n",
              hstats.num_exact_rejects, hstats.num_heuristic_rejects,
              hstats.num_exact_accepts, hstats.num_score_alignments,
              static_cast<unsigned long long>(hstats.simd.runs_8bit),
              static_cast<unsigned long long>(hstats.simd.rescues_16bit),
              static_cast<unsigned long long>(hstats.simd.scalar_fallbacks),
              hstats.num_traced_alignments);

  // --- 3. gpClust --------------------------------------------------------
  device::DeviceContext device(device::DeviceSpec::tesla_k20());
  core::ShinglingParams params;
  core::GpClust clusterer(device, params);
  core::GpClustReport report;
  const auto families = clusterer.cluster(graph, &report);
  std::printf("gpClust: %s\n", families.summary().c_str());

  // --- 4. Quality vs the planted truth, next to the GOS baseline --------
  const auto gos = baseline::gos_kneighbor_cluster(graph);

  util::AsciiTable table({"approach", "#clusters(>=3)", "PPV", "SE",
                          "avg density"});
  auto add_row = [&](const std::string& name, const core::Clustering& c) {
    const auto filtered = c.filtered(3);
    const auto conf = eval::compare_partitions(
        eval::labels_with_singletons(filtered), metagenome.family);
    const auto density = eval::density_stats(graph, filtered);
    table.add_row({name, std::to_string(filtered.num_clusters()),
                   util::AsciiTable::pct(conf.ppv(), 1),
                   util::AsciiTable::pct(conf.sensitivity(), 1),
                   util::AsciiTable::fmt(density.mean(), 2)});
  };
  add_row("gpClust", families);
  add_row("GOS k-neighbor", gos);
  std::printf("\n%s\n", table.render().c_str());
  return 0;
}
