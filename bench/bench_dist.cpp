// Extension bench: the distributed-memory shingling path (the [18]/[25]
// lineage of the paper) — rank-count sweep with wall time, exchanged
// tuple volume, and the serial-equivalence digest check (exit 1 on any
// mismatch).
//
// Note: ranks are threads in one process here; on this host wall time
// reflects hardware concurrency, not the algorithm's distributed scaling.
// The communication volume columns are the machine-independent output.
//
// Flags: --scale (default 0.15), --ranks (comma list, default "1,2,4,8").

#include <cstdio>
#include <sstream>

#include "core/serial_pclust.hpp"
#include "dist/dist_shingling.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.15);

  std::vector<std::size_t> rank_counts;
  {
    std::stringstream ss(args.get_string("ranks", "1,2,4,8"));
    std::string item;
    while (std::getline(ss, item, ',')) {
      rank_counts.push_back(static_cast<std::size_t>(std::stoul(item)));
    }
  }

  std::printf("=== Distributed shingling: rank sweep ===\n\n");
  const auto pg = bench::make_2m_analog(scale);
  bench::print_graph_banner("input", pg.graph);

  core::ShinglingParams params;
  params.c1 = 50;
  params.c2 = 25;

  util::WallTimer serial_timer;
  auto serial = core::SerialShingler(params).cluster(pg.graph);
  const double serial_seconds = serial_timer.seconds();
  serial.normalize();
  const u64 reference = serial.digest();
  std::printf("serial reference: %.2fs\n\n", serial_seconds);

  util::AsciiTable table({"ranks", "wall s", "tuples exch. p1",
                          "tuples exch. p2", "result"});
  int exit_code = 0;
  for (std::size_t ranks : rank_counts) {
    util::WallTimer timer;
    dist::DistStats stats;
    auto c = dist::distributed_cluster(pg.graph, params, ranks, &stats);
    const double seconds = timer.seconds();
    c.normalize();
    if (c.digest() != reference) exit_code = 1;
    table.add_row({std::to_string(ranks), util::AsciiTable::fmt(seconds),
                   std::to_string(stats.tuples_exchanged_pass1),
                   std::to_string(stats.tuples_exchanged_pass2),
                   c.digest() == reference ? "== serial" : "MISMATCH!"});
  }
  std::printf("%s\n", table.render().c_str());
  return exit_code;
}
