// gpclust-build-index — builds a persistent family-index snapshot.
//
// Runs the clustering front half of the pipeline (homology graph ->
// Shingling) over a protein set, then persists the result as a versioned,
// checksummed snapshot (DESIGN.md §10): sequences, partition, per-family
// representatives and the representative k-mer postings index that
// gpclust-query serves from. Building twice from the same input produces
// byte-identical files.
//
// Streaming ingest (DESIGN.md §15): --base-snapshot + --append grows an
// existing index incrementally. Each appended FASTA is one IngestSession
// batch — only new-vs-existing candidates are verified and only touched
// components re-shingled — and emits one CRC'd delta link next to the
// base snapshot (families.gpfi.delta.1, .delta.2, ...). --compact folds
// the base plus its delta chain into a fresh full snapshot whose bytes
// are identical to a from-scratch build over the concatenated input;
// compacting in place (--out equal to --base-snapshot) also deletes the
// folded links, so later appends start a fresh chain. Every snapshot and
// delta is published atomically (temp file, fsync, rename).
//
//   gpclust-build-index --fasta=orfs.faa --out=families.gpfi
//   gpclust-build-index --demo-families=40 --out=demo.gpfi
//       --demo-fasta-out=demo.faa
//   gpclust-build-index --base-snapshot=families.gpfi --append=day2.faa
//   gpclust-build-index --base-snapshot=families.gpfi --compact
//       --out=compacted.gpfi
//
// Flags:
//   --fasta=PATH           input protein FASTA
//   --demo-families=N      instead of --fasta: synthetic metagenome with N
//                          planted families (smoke-testing / demos)
//   --out=PATH             snapshot output path (build and --compact only)
//   --base-snapshot=PATH   existing snapshot; its delta chain is followed
//                          before appending or compacting
//   --append=F1[,F2,...]   ingest each FASTA as one incremental batch and
//                          write one delta link per batch next to the base
//                          snapshot (k and signature parameters come from
//                          the base; --c1/--c2/--reps must match the
//                          original build for byte-identical compaction;
//                          a --reps that does not rebuild the base is
//                          refused before any link is written)
//   --compact              fold base snapshot + delta chain into --out
//                          (exclusive with --append); with --out equal
//                          to --base-snapshot the folded links are deleted
//   --k=N                  k-mer length of the stored postings (default 5)
//   --reps=N               representatives kept per family (default 2)
//   --engine=gpu|serial    clustering implementation (default gpu)
//   --c1,--c2              shingling cluster-size parameters (default 80/40)
//   --seed=N               demo generator seed (default 42)
//   --demo-fasta-out=PATH  also write the demo sequences as FASTA (so the
//                          demo can be queried back against its own index)
//   --sig-hashes=N         min-hash signature width per representative
//                          (default 32; the bucketed seed index bands it)
//   --sig-seed=N           signature permutation-derivation seed (default:
//                          the recorded build default)
//   --help                 print the flag reference and exit
//
// Exit codes: 0 success; 1 build failure; 2 usage (including a flag the
// mode does not read); 4 snapshot or delta corruption
// (store::SnapshotError); 5 snapshot I/O failure — missing or unwritable
// file (store::SnapshotIoError). Same convention as gpclust-query.

#include <cstdio>
#include <filesystem>
#include <optional>

#include "align/homology_graph.hpp"
#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "ingest/ingest_session.hpp"
#include "seq/family_model.hpp"
#include "seq/fasta.hpp"
#include "store/delta.hpp"
#include "store/signature.hpp"
#include "store/snapshot.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

void print_help(std::FILE* out) {
  std::fprintf(
      out,
      "gpclust-build-index: build a persistent family-index snapshot\n"
      "usage: gpclust-build-index --fasta=PATH | --demo-families=N "
      "--out=PATH [flags]\n"
      "  --fasta=PATH           input protein FASTA\n"
      "  --demo-families=N      synthetic metagenome with N planted families\n"
      "  --out=PATH             snapshot output path (build and --compact "
      "only)\n"
      "  --base-snapshot=PATH   existing snapshot (delta chain followed)\n"
      "  --append=F1[,F2,...]   ingest each FASTA as one incremental batch; "
      "one delta link per batch\n"
      "  --compact              fold base snapshot + delta chain into --out "
      "(in place: --out=base also deletes the folded links)\n"
      "  --k=N                  k-mer length of the stored postings "
      "(default 5)\n"
      "  --reps=N               representatives kept per family (default 2)\n"
      "  --engine=gpu|serial    clustering implementation (default gpu)\n"
      "  --c1=N                 shingling cluster-size parameter "
      "(default 80)\n"
      "  --c2=N                 shingling cluster-size parameter "
      "(default 40)\n"
      "  --seed=N               demo generator seed (default 42)\n"
      "  --demo-fasta-out=PATH  also write the demo sequences as FASTA\n"
      "  --sig-hashes=N         min-hash signature width per representative "
      "(default 32)\n"
      "  --sig-seed=N           signature permutation-derivation seed\n"
      "  --help                 print this reference and exit\n");
}

std::vector<std::string> split_csv(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) out.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// --append: resume an IngestSession from the chain tip and write one
/// delta link per appended FASTA. `config` carries the flag-given
/// shingling and reps; k and the signature parameters are recorded in the
/// snapshot, so the base is authoritative for those. Returns the process
/// exit code.
int run_append(gpclust::ingest::IngestConfig config, const std::string& engine,
               const std::string& base_snapshot,
               const std::vector<std::string>& batches,
               gpclust::store::DeltaChainTip tip) {
  using namespace gpclust;
  config.store.k = static_cast<std::size_t>(tip.store.kmer_k);
  config.store.sig_hashes = static_cast<std::size_t>(tip.store.sig_num_hashes);
  config.store.sig_seed = tip.store.sig_seed;
  std::optional<device::DeviceContext> ctx;
  if (engine == "gpu") {
    ctx.emplace(device::DeviceSpec::tesla_k20());
    config.engine = ingest::ClusterEngine::Device;
    config.device = &*ctx;
  } else if (engine != "serial") {
    throw InvalidArgument("unknown --engine: " + engine);
  }

  u64 link = tip.chain_length;
  ingest::IngestSession session(config, tip.store);
  for (const std::string& path : batches) {
    const seq::SequenceSet batch = seq::read_fasta(path);
    util::WallTimer timer;
    ingest::IngestBatchStats stats;
    ++link;
    const store::SnapshotDelta delta =
        session.ingest_with_delta(batch, link, &stats);
    const std::string delta_path = store::delta_chain_path(base_snapshot, link);
    store::write_delta(delta, delta_path);
    std::printf(
        "appended %zu sequences from %s -> %s: %zu candidate pairs, "
        "+%zu/-%zu edges, %.1f%% of vertices re-shingled, %llu families, "
        "%.3fs delta, %.2fs wall\n",
        batch.size(), path.c_str(), delta_path.c_str(),
        stats.num_candidate_pairs, stats.num_accepted_edges,
        stats.num_revoked_edges, 100.0 * stats.touched_fraction,
        static_cast<unsigned long long>(session.num_families()),
        stats.delta_host_s, timer.seconds());
  }
  if (ctx.has_value()) {
    GPCLUST_CHECK(ctx->arena().used() == 0,
                  "device arena must be empty after ingest");
    std::fprintf(stderr, "device arena empty after ingest\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpclust;
  try {
    const util::CliArgs args(argc, argv);
    if (args.has("help")) {
      print_help(stdout);
      return 0;
    }
    // Each mode reads only its own flags, so reject_unknown() refuses the
    // rest (e.g. --fasta or --out beside --append).

    // --- Streaming-ingest modes (DESIGN.md §15) ----------------------------
    const auto base_snapshot = args.get_string("base-snapshot", "");
    const auto append_spec = args.get_string("append", "");
    const bool compact = args.has("compact");
    if (!base_snapshot.empty() || !append_spec.empty() || compact) {
      const bool append = !append_spec.empty();
      // Only compaction writes a snapshot; --append writes delta links.
      const auto out_path = compact ? args.get_string("out", "") : "";
      if (base_snapshot.empty() || (append && compact) ||
          (!append && !compact) || (compact && out_path.empty())) {
        print_help(stderr);
        return 2;
      }
      // Compaction reads no further flags; --append reads its own.
      ingest::IngestConfig config;
      std::string engine;
      if (append) {
        config.shingling.c1 = static_cast<u32>(args.get_int("c1", 80));
        config.shingling.c2 = static_cast<u32>(args.get_int("c2", 40));
        config.store.reps_per_family =
            static_cast<std::size_t>(args.get_int("reps", 2));
        engine = args.get_string("engine", "gpu");
      }
      args.reject_unknown();
      store::DeltaChainTip tip = store::follow_delta_chain(base_snapshot);
      std::fprintf(stderr,
                   "loaded %s + %llu delta link(s): %zu sequences, "
                   "%llu families\n",
                   base_snapshot.c_str(),
                   static_cast<unsigned long long>(tip.chain_length),
                   tip.store.num_sequences(),
                   static_cast<unsigned long long>(tip.store.num_families));
      if (compact) {
        store::write_snapshot(tip.store, out_path);
        // Compacting in place folds the chain into the base itself: retire
        // the folded links, ascending, so a crash part-way leaves a gap at
        // the front (which ends the chain) and the base loads alone.
        std::error_code same_ec;
        if (std::filesystem::equivalent(base_snapshot, out_path, same_ec)) {
          for (u64 i = 1; i <= tip.chain_length; ++i) {
            std::filesystem::remove(store::delta_chain_path(base_snapshot, i));
          }
        }
        std::printf("compacted %s + %llu delta link(s) -> %s: %zu sequences, "
                    "%llu families\n",
                    base_snapshot.c_str(),
                    static_cast<unsigned long long>(tip.chain_length),
                    out_path.c_str(), tip.store.num_sequences(),
                    static_cast<unsigned long long>(tip.store.num_families));
        return 0;
      }
      return run_append(std::move(config), engine, base_snapshot,
                        split_csv(append_spec), std::move(tip));
    }

    const auto fasta_path = args.get_string("fasta", "");
    const auto demo_families = args.get_int("demo-families", 0);
    const auto out_path = args.get_string("out", "");
    if (out_path.empty() || (fasta_path.empty() && demo_families <= 0)) {
      print_help(stderr);
      return 2;
    }

    // --seed is demo-only.
    const u64 demo_seed =
        fasta_path.empty() ? static_cast<u64>(args.get_int("seed", 42)) : 0;
    const auto demo_fasta_out = args.get_string("demo-fasta-out", "");
    core::ShinglingParams params;
    params.c1 = static_cast<u32>(args.get_int("c1", 80));
    params.c2 = static_cast<u32>(args.get_int("c2", 40));
    const auto engine = args.get_string("engine", "gpu");
    store::StoreBuildConfig build;
    build.k = static_cast<std::size_t>(args.get_int("k", 5));
    build.reps_per_family = static_cast<std::size_t>(args.get_int("reps", 2));
    build.sig_hashes = static_cast<std::size_t>(args.get_int(
        "sig-hashes", static_cast<i64>(store::kDefaultSignatureHashes)));
    build.sig_seed = static_cast<u64>(args.get_int(
        "sig-seed", static_cast<i64>(store::kDefaultSignatureSeed)));
    args.reject_unknown();

    // --- 1. Sequences -----------------------------------------------------
    seq::SequenceSet sequences;
    if (!fasta_path.empty()) {
      sequences = seq::read_fasta(fasta_path);
    } else {
      seq::FamilyModelConfig demo;
      demo.num_families = static_cast<std::size_t>(demo_families);
      demo.min_members = 4;
      demo.max_members = 16;
      demo.substitution_rate = 0.08;
      demo.fragment_min_fraction = 0.8;
      demo.seed = demo_seed;
      sequences = seq::generate_metagenome(demo).sequences;
    }
    std::fprintf(stderr, "loaded %zu sequences\n", sequences.size());
    if (!demo_fasta_out.empty()) {
      seq::write_fasta(sequences, demo_fasta_out);
      std::fprintf(stderr, "wrote %s\n", demo_fasta_out.c_str());
    }

    // --- 2. Homology graph + Shingling -------------------------------------
    util::WallTimer cluster_timer;
    align::HomologyGraphConfig hcfg;
    const auto graph = align::build_homology_graph(sequences, hcfg);
    core::Clustering clustering;
    if (engine == "serial") {
      clustering = core::SerialShingler(params).cluster(graph);
    } else if (engine == "gpu") {
      device::DeviceContext ctx(device::DeviceSpec::tesla_k20());
      clustering = core::GpClust(ctx, params).cluster(graph);
      GPCLUST_CHECK(ctx.arena().used() == 0,
                    "device arena must be empty after clustering");
      std::fprintf(stderr, "device arena empty after clustering\n");
    } else {
      throw InvalidArgument("unknown --engine: " + engine);
    }
    std::fprintf(stderr, "clustered: %zu families in %.2fs wall\n",
                 clustering.num_clusters(), cluster_timer.seconds());

    // --- 3. Snapshot --------------------------------------------------------
    const auto store =
        store::build_family_store(sequences, clustering.labels(), build);
    store::write_snapshot(store, out_path);
    std::printf("wrote %s: %zu sequences, %llu families, %zu representatives, "
                "%zu postings (k=%llu), %llu-hash signatures\n",
                out_path.c_str(), store.num_sequences(),
                static_cast<unsigned long long>(store.num_families),
                store.representatives.size(), store.postings.size(),
                static_cast<unsigned long long>(store.kmer_k),
                static_cast<unsigned long long>(store.sig_num_hashes));
    return 0;
  } catch (const store::SnapshotIoError& e) {
    std::fprintf(stderr, "error [snapshot io]: %s\n", e.what());
    return 5;
  } catch (const store::SnapshotError& e) {
    std::fprintf(stderr, "error [snapshot corruption]: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
