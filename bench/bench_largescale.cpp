// Reproduces the paper's large-scale demonstration (§IV headline / §V):
// clustering a real-world homology graph of 11M vertices and 640M edges in
// ~94 minutes on the K20 host. Here: a scaled power-law homology-graph
// analog big enough to exceed the configured device memory, forcing the
// multi-batch out-of-core path, with measured wall time and the modeled
// device time reported side by side.
//
// Flags: --vertices (default 200000), --avg-degree (default 12),
//        --device-mb (default 16: small on purpose, to force many batches),
//        --c1/--c2 (default 200/100), --streams (default 1).

#include <cstdio>

#include "core/gpclust.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const std::size_t n =
      static_cast<std::size_t>(args.get_int("vertices", 200000));
  const double avg_degree = args.get_double("avg-degree", 12.0);
  const std::size_t device_mb =
      static_cast<std::size_t>(args.get_int("device-mb", 16));

  std::printf("=== Large-scale run: %zu vertices, avg degree %.1f, device "
              "memory %zu MB ===\n\n", n, avg_degree, device_mb);

  util::WallTimer gen_timer;
  const auto g = graph::generate_power_law(n, avg_degree, 1.7, 7);
  std::printf("graph generated in %.1fs\n", gen_timer.seconds());
  bench::print_graph_banner("input", g);

  device::DeviceSpec spec = device::DeviceSpec::tesla_k20();
  spec.global_memory_bytes = device_mb << 20;
  device::DeviceContext ctx(spec);

  core::ShinglingParams params;
  params.c1 = static_cast<u32>(args.get_int("c1", 200));
  params.c2 = static_cast<u32>(args.get_int("c2", 100));
  core::GpClustOptions options;
  options.num_streams =
      static_cast<std::size_t>(args.get_int("streams", 1));

  util::WallTimer wall;
  core::GpClust gp(ctx, params, options);
  core::GpClustReport report;
  const auto clustering = gp.cluster(g, &report);
  const double wall_seconds = wall.seconds();

  std::printf("\nclusters: %s\n", clustering.summary().c_str());
  util::AsciiTable table({"metric", "value"});
  table.add_row({"wall time (this host)",
                 util::AsciiTable::fmt(wall_seconds, 1) + " s"});
  table.add_row({"modeled device makespan",
                 util::AsciiTable::fmt(report.device_makespan, 1) + " s"});
  table.add_row({"modeled GPU compute",
                 util::AsciiTable::fmt(report.gpu_seconds, 1) + " s"});
  table.add_row({"modeled Data c->g",
                 util::AsciiTable::fmt(report.h2d_seconds, 1) + " s"});
  table.add_row({"modeled Data g->c",
                 util::AsciiTable::fmt(report.d2h_seconds, 1) + " s"});
  table.add_row({"measured CPU aggregation",
                 util::AsciiTable::fmt(report.cpu_seconds, 1) + " s"});
  table.add_row({"pass 1 batches", std::to_string(report.pass1.num_batches)});
  table.add_row({"pass 2 batches", std::to_string(report.pass2.num_batches)});
  table.add_row({"split adjacency lists",
                 std::to_string(report.pass1.num_split_lists +
                                report.pass2.num_split_lists)});
  std::printf("\n%s\n", table.render().c_str());
  std::printf("paper reference: 11M vertices / 640M edges clustered in "
              "~94 minutes. Scale this bench with --vertices/--avg-degree; "
              "the multi-batch path exercised here is the same code path.\n");
  return 0;
}
