// gpclust — command-line clustering tool.
//
// Reads a similarity graph (text edge list or binary CSR), runs Shingling
// (serial pClust or the simulated-device gpClust), and writes one cluster
// per line. This is the "downstream user" entry point of the library.
//
//   gpclust --graph=homology.txt --out=clusters.txt
//   gpclust --graph=graph.bin --engine=serial --c1=100 --c2=50
//   gpclust --graph=g.txt --components --min-cluster-size=20 --report
//   gpclust --demo=2000                      # synthetic planted graph
//   gpclust --fasta=orfs.faa --verify-backend=device   # from sequences
//
// Flags:
//   --graph=PATH           input graph; ".bin" = binary CSR, else edge list
//   --demo=N               instead of --graph: planted-family graph with
//                          ~N vertices (smoke-testing / demos)
//   --fasta=PATH           instead of --graph: protein FASTA; the homology
//                          graph is built first (three-stage verify
//                          cascade), then clustered
//   --demo-orfs=N          instead of --fasta: synthetic family-model
//                          metagenome with ~N ORFs
//   --verify-backend=B     sequence-input verify backend: scalar | simd
//                          (default) | device — device runs the batched
//                          score kernel on the simulated device (reuses
//                          --streams, --fault-plan, --resilience) and
//                          prints the CPU-prefilter vs device-verify
//                          critical-path split (modeled time labeled)
//   --out=PATH             cluster output (default: stdout summary only)
//   --engine=gpu|serial    implementation (default gpu)
//   --s1,--c1,--s2,--c2    shingling parameters (default 2/200/2/100)
//   --seed=N               hash-family seed
//   --mode=partition|overlapping
//   --min-cluster-size=N   only write clusters of at least N members
//   --components           decompose into connected components first
//   --streams=K            device streams for the batch pipeline (default 1
//                          = synchronous; 2 = single-lane transfer overlap;
//                          2L = L batches in flight)
//   --device-mb=N          simulated device memory (default 5120)
//   --report               print the Table-I style component breakdown
//   --trace-out=PATH       write a chrome://tracing JSON of the run (spans
//                          labeled host_measured / device_modeled) and
//                          print the per-phase summary table to stderr
//   --fault-plan=SPEC      deterministic fault injection (gpu engine).
//                          SPEC is comma-separated KIND@SITE:IDX entries:
//                            oom@alloc:IDX, xfer_fail@h2d:IDX,
//                            xfer_fail@d2h:IDX, kernel_fail@kernel:IDX
//                          IDX = 0-based call index N or range N-M.
//                          Fault counters are printed to stderr.
//   --resilience=MODE      off: first fault is fatal (default);
//                          retry: bounded retries, fatal when exhausted;
//                          fallback: retries, then bit-identical CPU
//                          fallback — the run always completes
//   --help                 print the flag reference and exit

#include <cstdio>

#include "align/homology_graph.hpp"
#include "core/component_decomposition.hpp"
#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "eval/cluster_stats.hpp"
#include "eval/partition_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "obs/trace.hpp"
#include "seq/family_model.hpp"
#include "seq/fasta.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace gpclust;

void print_help(std::FILE* out) {
  std::fprintf(
      out,
      "gpclust: cluster a similarity graph (or protein sequences) with "
      "Shingling\n"
      "usage: gpclust --graph=PATH | --demo=N | --fasta=PATH | "
      "--demo-orfs=N [flags]\n"
      "  --graph=PATH           input graph; \".bin\" = binary CSR, else "
      "edge list\n"
      "  --demo=N               planted-family graph with ~N vertices\n"
      "  --fasta=PATH           protein FASTA; the homology graph is built "
      "first\n"
      "  --demo-orfs=N          synthetic metagenome with ~N ORFs\n"
      "  --verify-backend=scalar|simd|device  sequence-input verify backend "
      "(default simd)\n"
      "  --seed-mode=kmer|maximal|minhash  sequence-input candidate stream "
      "(default kmer)\n"
      "  --lsh-bands=N          minhash: LSH bands (default 32)\n"
      "  --lsh-rows=N           minhash: signature rows per band "
      "(default 1)\n"
      "  --out=PATH             write the clusters, one per line\n"
      "  --min-cluster-size=N   only write/count clusters of at least N "
      "members (default 1)\n"
      "  --engine=gpu|serial    implementation (default gpu)\n"
      "  --s1=N --c1=N --s2=N --c2=N  shingling parameters "
      "(default 2/200/2/100)\n"
      "  --seed=N               hash-family seed (default 20130520)\n"
      "  --mode=partition|overlapping  cluster reporting (default "
      "partition)\n"
      "  --components           decompose into connected components first\n"
      "  --streams=K            device streams for the batch pipeline "
      "(default 1 = synchronous)\n"
      "  --device-mb=N          simulated device memory (default 5120)\n"
      "  --report               print the Table-I style component "
      "breakdown\n"
      "  --trace-out=PATH       chrome://tracing JSON of the run\n"
      "  --fault-plan=SPEC      comma-separated KIND@SITE:IDX, KIND@SITE in "
      "{oom@alloc, xfer_fail@h2d, xfer_fail@d2h, kernel_fail@kernel}, IDX a "
      "0-based call index N or inclusive range N-M\n"
      "  --resilience=off|retry|fallback  device fault policy "
      "(default off)\n"
      "  --help                 print this reference and exit\n");
}

core::ShinglingParams params_from(const util::CliArgs& args) {
  core::ShinglingParams params;
  params.s1 = static_cast<u32>(args.get_int("s1", params.s1));
  params.c1 = static_cast<u32>(args.get_int("c1", params.c1));
  params.s2 = static_cast<u32>(args.get_int("s2", params.s2));
  params.c2 = static_cast<u32>(args.get_int("c2", params.c2));
  params.seed = static_cast<u64>(args.get_int("seed", 20130520));
  const auto mode = args.get_string("mode", "partition");
  if (mode == "overlapping") {
    params.mode = core::ReportMode::Overlapping;
  } else if (mode != "partition") {
    throw InvalidArgument("unknown --mode: " + mode);
  }
  return params;
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
    const auto graph_path = args.get_string("graph", "");
    const auto demo_vertices = args.get_int("demo", 0);
    const auto fasta_path = args.get_string("fasta", "");
    const auto demo_orfs = args.get_int("demo-orfs", 0);
    const bool sequence_mode = !fasta_path.empty() || demo_orfs > 0;
    if (graph_path.empty() && demo_vertices <= 0 && !sequence_mode) {
      print_help(stderr);
      return 2;
    }

    // Every flag this invocation uses is read before any work starts, so
    // reject_unknown() can refuse the rest.
    align::HomologyGraphConfig hcfg;
    if (sequence_mode) {
      hcfg.verify_backend =
          align::parse_verify_backend(args.get_string("verify-backend", "simd"));
      hcfg.seed_mode =
          align::parse_seed_mode(args.get_string("seed-mode", "kmer"));
      hcfg.lsh.num_bands = static_cast<u64>(
          args.get_int("lsh-bands", static_cast<i64>(hcfg.lsh.num_bands)));
      hcfg.lsh.rows_per_band = static_cast<u64>(
          args.get_int("lsh-rows", static_cast<i64>(hcfg.lsh.rows_per_band)));
    }
    const auto params = params_from(args);
    const auto engine = args.get_string("engine", "gpu");
    const auto device_mb = args.get_int("device-mb", 5120);
    const auto trace_out = args.get_string("trace-out", "");
    const auto fault_spec = args.get_string("fault-plan", "");
    const auto num_streams = args.get_int("streams", 1);
    const auto resilience =
        fault::parse_resilience_mode(args.get_string("resilience", "off"));
    const bool components = args.get_bool("components", false);
    const auto min_size =
        static_cast<std::size_t>(args.get_int("min-cluster-size", 1));
    const bool print_report = args.get_bool("report", false);
    const auto out = args.get_string("out", "");
    args.reject_unknown();

    util::WallTimer load_timer;
    seq::SequenceSet sequences;
    if (sequence_mode) {
      if (!fasta_path.empty()) {
        sequences = seq::read_fasta(fasta_path);
      } else {
        seq::FamilyModelConfig mcfg;
        mcfg.num_families = std::max<std::size_t>(
            2, static_cast<std::size_t>(demo_orfs) / 8);
        mcfg.num_background_orfs = mcfg.num_families * 2;
        sequences = seq::generate_metagenome(mcfg).sequences;
      }
      std::fprintf(stderr, "loaded %zu sequences in %.2fs\n",
                   sequences.size(), load_timer.seconds());
    }
    graph::CsrGraph g;
    if (sequence_mode) {
      // Built below, once the device context and fault plan exist.
    } else if (demo_vertices > 0) {
      graph::PlantedFamilyConfig demo;
      demo.num_families =
          std::max<std::size_t>(2, static_cast<std::size_t>(demo_vertices) / 40);
      demo.min_family_size = 10;
      demo.max_family_size = 80;
      demo.intra_family_edge_prob = 0.6;
      g = graph::generate_planted_families(demo).graph;
    } else {
      const bool binary = graph_path.size() > 4 &&
                          graph_path.substr(graph_path.size() - 4) == ".bin";
      g = binary ? graph::read_csr_binary(graph_path)
                 : graph::read_edge_list_text(graph_path);
    }
    if (!sequence_mode) {
      std::fprintf(stderr, "loaded %zu vertices / %zu edges in %.2fs\n",
                   g.num_vertices(), g.num_edges(), load_timer.seconds());
    }

    device::DeviceSpec spec = device::DeviceSpec::tesla_k20();
    spec.global_memory_bytes = static_cast<std::size_t>(device_mb) << 20;
    device::DeviceContext ctx(spec);
    obs::Tracer tracer;
    obs::Tracer* tracer_ptr = trace_out.empty() ? nullptr : &tracer;
    fault::FaultPlan fault_plan;
    core::GpClustOptions options;
    options.num_streams = static_cast<std::size_t>(num_streams);
    options.tracer = tracer_ptr;
    if (!fault_spec.empty()) {
      fault_plan = fault::FaultPlan::parse(fault_spec);
      options.fault_plan = &fault_plan;
      // Fault counters need a tracer even when no trace file is written.
      if (options.tracer == nullptr) options.tracer = &tracer;
    }
    options.resilience.mode = resilience;

    if (sequence_mode) {
      hcfg.tracer = options.tracer;
      if (hcfg.verify_backend == align::VerifyBackend::DeviceBatched) {
        hcfg.device_verify.context = &ctx;
        hcfg.device_verify.num_streams = options.num_streams;
        hcfg.device_verify.resilience = options.resilience;
        if (options.fault_plan != nullptr) ctx.set_fault_plan(&fault_plan);
      }
      util::WallTimer homology_timer;
      align::HomologyGraphStats hstats;
      g = align::build_homology_graph(sequences, hcfg, &hstats);
      std::fprintf(stderr,
                   "homology graph: %zu vertices / %zu edges in %.2fs wall "
                   "(%zu candidate pairs, %zu survived prefilter: %zu exact "
                   "accepts + %zu score DPs, seeds %s, backend %s)\n",
                   g.num_vertices(), g.num_edges(), homology_timer.seconds(),
                   hstats.num_candidate_pairs, hstats.num_surviving_pairs,
                   hstats.num_exact_accepts, hstats.num_score_alignments,
                   std::string(align::seed_mode_name(hcfg.seed_mode)).c_str(),
                   std::string(align::verify_backend_name(hcfg.verify_backend))
                       .c_str());
      if (hcfg.verify_backend == align::VerifyBackend::DeviceBatched) {
        const auto& d = hstats.device;
        std::fprintf(stderr,
                     "verify split: cpu prefilter %.4fs + pack %.4fs (host) | "
                     "device makespan %.4fs (MODELED: kernel %.4fs, c->g "
                     "%.4fs, g->c %.4fs exposed)\n",
                     hstats.prefilter_host_s, d.pack_host_s,
                     d.makespan_modeled_s, d.kernel_exposed_modeled_s,
                     d.h2d_exposed_modeled_s, d.d2h_exposed_modeled_s);
      }
    }

    auto cluster_graph = [&](const graph::CsrGraph& input,
                             core::GpClustReport* report) {
      if (engine == "serial") {
        return core::SerialShingler(params).cluster(input, tracer_ptr);
      }
      if (engine != "gpu") throw InvalidArgument("unknown --engine: " + engine);
      core::GpClust gp(ctx, params, options);
      return gp.cluster(input, report);
    };

    util::WallTimer cluster_timer;
    core::Clustering clustering;
    core::GpClustReport report;
    if (components) {
      core::ComponentDecompositionStats stats;
      clustering = core::cluster_by_components(
          g,
          [&](const graph::CsrGraph& sub) {
            return cluster_graph(sub, nullptr);
          },
          3, &stats);
      std::fprintf(stderr, "%zu components (largest %zu), %zu shingled\n",
                   stats.num_components, stats.largest_component,
                   stats.num_shingled_components);
    } else {
      clustering = cluster_graph(g, &report);
    }
    std::fprintf(stderr, "clustered in %.2fs wall\n", cluster_timer.seconds());

    const auto filtered = clustering.filtered(min_size);
    const auto stats = eval::partition_stats(filtered);
    std::printf("%zu clusters (>= %zu members), %zu sequences, largest %zu, "
                "avg %s\n",
                stats.num_groups, min_size, stats.num_sequences,
                stats.largest, stats.group_size.format(1).c_str());

    if (print_report && engine == "gpu" && !components) {
      std::printf("breakdown: CPU %.2fs | GPU %.2fs | c->g %.2fs | g->c "
                  "%.2fs | device makespan %.2fs\n",
                  report.cpu_seconds, report.gpu_seconds, report.h2d_seconds,
                  report.d2h_seconds, report.device_makespan);
      std::printf("critical path (modeled, sums to makespan): GPU %.2fs | "
                  "c->g %.2fs | g->c %.2fs\n",
                  report.gpu_exposed_seconds, report.h2d_exposed_seconds,
                  report.d2h_exposed_seconds);
    }

    if (!fault_spec.empty()) {
      std::fprintf(stderr,
                   "fault plan \"%s\" (resilience %s): %llu faults injected, "
                   "%llu retries, %llu batch replans, %llu pipeline drains, "
                   "%llu cpu fallbacks\n",
                   fault_plan.to_string().c_str(),
                   std::string(fault::resilience_mode_name(options.resilience.mode))
                       .c_str(),
                   static_cast<unsigned long long>(fault_plan.injected()),
                   static_cast<unsigned long long>(tracer.counter("retries")),
                   static_cast<unsigned long long>(
                       tracer.counter("batch_replans")),
                   static_cast<unsigned long long>(
                       tracer.counter("pipeline_drains")),
                   static_cast<unsigned long long>(
                       tracer.counter("cpu_fallbacks")));
    }

    if (tracer_ptr != nullptr) {
      obs::write_chrome_trace(tracer, trace_out);
      std::fprintf(stderr, "wrote trace %s (%zu events)\n%s",
                   trace_out.c_str(), tracer.num_events(),
                   tracer.summary().c_str());
    }

    if (!out.empty()) {
      eval::write_clusters(filtered, out);
      std::fprintf(stderr, "wrote %s\n", out.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
