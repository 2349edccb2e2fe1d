// Ablation: device generation sweep. The paper's §II distinguishes Fermi
// SMs from Kepler SMXs; this bench replays the same gpClust workload on
// the simulated K20 (Kepler, the paper's card), a simulated C2050
// (Fermi), and a memory-starved K20, comparing modeled device makespans
// and batching behavior. Output identity is asserted via digests.
//
// Flags: --scale (default 0.25), --streams (default 1).

#include <cstdio>

#include "core/gpclust.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.25);

  std::printf("=== Ablation: device generation sweep ===\n\n");
  const auto pg = bench::make_2m_analog(scale);
  bench::print_graph_banner("input", pg.graph);
  std::printf("\n");

  struct Candidate {
    std::string label;
    device::DeviceSpec spec;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({"Tesla K20 (Kepler)", device::DeviceSpec::tesla_k20()});
  candidates.push_back(
      {"Tesla C2050 (Fermi)", device::DeviceSpec::tesla_c2050()});
  {
    auto starved = device::DeviceSpec::tesla_k20();
    starved.name += " / 8 MB";
    starved.global_memory_bytes = 8 << 20;
    candidates.push_back({"K20, 8 MB memory", starved});
  }

  core::ShinglingParams params;
  params.c1 = 100;
  params.c2 = 50;
  core::GpClustOptions options;
  options.num_streams =
      static_cast<std::size_t>(args.get_int("streams", 1));

  util::AsciiTable table({"device", "GPU", "Data c->g", "Data g->c",
                          "makespan", "batches", "digest"});
  u64 reference = 0;
  bool first = true;
  for (const auto& candidate : candidates) {
    device::DeviceContext ctx(candidate.spec);
    core::GpClust gp(ctx, params, options);
    core::GpClustReport report;
    auto clustering = gp.cluster(pg.graph, &report);
    clustering.normalize();
    if (first) {
      reference = clustering.digest();
      first = false;
    }
    table.add_row(
        {candidate.label, util::AsciiTable::fmt(report.gpu_seconds) + " s",
         util::AsciiTable::fmt(report.h2d_seconds) + " s",
         util::AsciiTable::fmt(report.d2h_seconds) + " s",
         util::AsciiTable::fmt(report.device_makespan) + " s",
         std::to_string(report.pass1.num_batches + report.pass2.num_batches),
         clustering.digest() == reference ? "match" : "MISMATCH!"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: Fermi's ~3.4x lower aggregate throughput "
              "shows directly in the modeled GPU column; constraining "
              "memory adds batches and transfer overhead without changing "
              "the result.\n");
  return 0;
}
