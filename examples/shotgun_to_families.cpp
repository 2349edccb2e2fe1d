// The complete workflow of the paper's §I, starting from raw shotgun DNA:
//
//   synthetic microbial community genomes            [seq::generate_community]
//     -> shotgun reads (few hundred bp, with errors)
//     -> six-frame translation -> ORFs               [seq::find_orfs]
//     -> homology graph: suffix-array maximal-match seeds + Smith-Waterman
//        verification                                 [pGraph's heuristic]
//     -> gpClust dense-subgraph detection
//     -> protein family "core sets" vs the embedded truth
//
//   ./shotgun_to_families [--families=15] [--coverage=3] [--seed=7]

#include <cstdio>
#include <map>

#include "align/homology_graph.hpp"
#include "core/gpclust.hpp"
#include "eval/density.hpp"
#include "eval/partition_metrics.hpp"
#include "seq/community_model.hpp"
#include "seq/orf_finder.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);

  // --- 1. Community + shotgun sequencing --------------------------------
  seq::CommunityConfig cfg;
  cfg.families.num_families =
      static_cast<std::size_t>(args.get_int("families", 15));
  cfg.families.min_members = 4;
  cfg.families.max_members = 12;
  cfg.families.substitution_rate = 0.06;
  cfg.families.fragment_min_fraction = 1.0;  // fragmentation comes from reads
  cfg.families.min_ancestor_length = 90;
  cfg.families.max_ancestor_length = 160;
  cfg.num_genomes = 8;
  cfg.coverage = args.get_double("coverage", 3.0);
  cfg.read_length = 450;
  cfg.seed = static_cast<u64>(args.get_int("seed", 7));
  const auto community = seq::generate_community(cfg);
  std::size_t genome_bases = 0;
  for (const auto& g : community.genomes) genome_bases += g.residues.size();
  std::printf("community: %zu genomes (%zu bp), %zu embedded proteins in "
              "%zu families\n",
              community.genomes.size(), genome_bases,
              community.proteins.size(), community.num_families);
  std::printf("shotgun: %zu reads of %zu bp at %.1fx coverage\n",
              community.reads.size(), cfg.read_length, cfg.coverage);

  // --- 2. Six-frame ORF calling ------------------------------------------
  seq::OrfFinderConfig orf_cfg;
  orf_cfg.min_length = 40;
  const auto orfs = seq::find_orfs(community.reads, orf_cfg);
  std::printf("ORFs (6-frame, >= %zu aa): %zu\n", orf_cfg.min_length,
              orfs.size());

  // --- 3. Homology graph with pGraph's maximal-match heuristic ------------
  util::WallTimer timer;
  align::HomologyGraphConfig hcfg;
  hcfg.seed_mode = align::SeedMode::MaximalMatch;
  hcfg.maximal_matches.min_match_length = 12;
  hcfg.num_threads = 1;
  // Opt-in heuristic prefilter (ungapped x-drop on the seed diagonal);
  // off by default because it can change the edge set.
  hcfg.prefilter.enabled = args.get_bool("xdrop-prefilter", false);
  align::HomologyGraphStats hstats;
  const auto graph = align::build_homology_graph(orfs, hcfg, &hstats);
  std::printf("homology graph: %zu SW verifications (%zu score + %zu traced, "
              "%zu pairs prefiltered, %zu exact accepts) -> %zu edges "
              "(%.1fs)\n",
              hstats.num_alignments, hstats.num_score_alignments,
              hstats.num_traced_alignments,
              hstats.num_exact_rejects + hstats.num_heuristic_rejects,
              hstats.num_exact_accepts, graph.num_edges(), timer.seconds());

  // --- 4. gpClust ---------------------------------------------------------
  device::DeviceContext device(device::DeviceSpec::tesla_k20());
  core::ShinglingParams params;
  params.c1 = 120;
  params.c2 = 60;
  const auto clustering = core::GpClust(device, params).cluster(graph);
  const auto families = clustering.filtered(3);
  std::printf("gpClust: %zu ORF clusters (>= 3 members)\n",
              families.num_clusters());

  // --- 5. Evaluate against the embedded families --------------------------
  // An ORF descends from the family whose protein its read overlapped; we
  // approximate truth by best-matching each clustered ORF to a source
  // protein via substring containment (exact for error-free segments).
  // Simpler robust proxy: two ORFs are "truly related" if their clusters'
  // members predominantly match the same family's proteins. Here we just
  // report cluster purity via the source-protein match.
  std::size_t clustered_orfs = 0, matched_orfs = 0, pure_pairs = 0,
              total_pairs = 0;
  std::vector<int> orf_family(orfs.size(), -1);
  for (std::size_t i = 0; i < orfs.size(); ++i) {
    const auto& residues = orfs[i].residues;
    for (std::size_t p = 0; p < community.proteins.size(); ++p) {
      const auto& protein = community.proteins[p].residues;
      // Overlap check via a 12-mer of the ORF appearing in the protein.
      if (residues.size() >= 12 &&
          protein.find(residues.substr(residues.size() / 2, 12)) !=
              std::string::npos) {
        orf_family[i] = static_cast<int>(community.family[p]);
        break;
      }
    }
  }
  for (const auto& cluster : families.clusters()) {
    std::map<int, std::size_t> votes;
    for (VertexId v : cluster) {
      ++clustered_orfs;
      if (orf_family[v] >= 0) {
        ++matched_orfs;
        ++votes[orf_family[v]];
      }
    }
    for (auto [fam, count] : votes) {
      pure_pairs += count * (count - 1) / 2;
    }
    if (matched_orfs >= 2) {
      std::size_t in_cluster = 0;
      for (VertexId v : cluster) {
        if (orf_family[v] >= 0) ++in_cluster;
      }
      total_pairs += in_cluster * (in_cluster - 1) / 2;
    }
  }
  std::printf("\nclustered ORFs: %zu (%zu traceable to a source family)\n",
              clustered_orfs, matched_orfs);
  if (total_pairs > 0) {
    std::printf("cluster purity (same-family pair fraction): %.1f%%\n",
                100.0 * static_cast<double>(pure_pairs) /
                    static_cast<double>(total_pairs));
  }
  return 0;
}
