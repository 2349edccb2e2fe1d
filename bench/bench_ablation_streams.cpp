// Ablation: synchronous vs asynchronous CPU-GPU transfers, generalized to
// k-stream batch pipelining.
//
// The paper's implementation is synchronous ("data movement overhead ...
// is unavoidable because of the synchronous data movement operations
// implemented in current Thrust") and names stream-based overlap as future
// work. This bench sweeps the DESIGN.md §8 pipeline: streams=1 is the
// paper's synchronous Thrust behavior, streams=2 the async overlap of D2H
// copies with the next trial's kernels, and 2L streams keep L batches in
// flight so batch i's D2H overlaps batch i+1's H2D and kernels. Each table
// decomposes the modeled makespan into exposed (critical-path)
// kernel/H2D/D2H seconds — the exposed transfer column is the overhead the
// pipeline drives toward zero — and its streams=1 vs streams=2 rows are
// the sync-vs-async comparison.
//
// Device memory defaults small (--device-mb=24) so every scale splits into
// multiple batches — cross-batch overlap needs batches to overlap.
//
// Flags: --scales (comma list, default "0.1,0.25"), --streams (default
// "1,2,4,8"), --device-mb, --batch-elements (default 16384; a fixed cap so
// every stream count runs the identical batch partition — otherwise the
// deeper pipelines derive smaller default batches from the lane-split
// arena budget and the extra per-batch launch/latency cost pollutes the
// overlap comparison), --c1/--c2 (one custom regime instead of the two
// defaults).

#include <cstdio>
#include <sstream>
#include <vector>

#include "core/gpclust.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace {

std::vector<double> parse_doubles(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    out.push_back(static_cast<std::size_t>(std::stoull(item)));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const std::size_t device_mb =
      static_cast<std::size_t>(args.get_int("device-mb", 24));
  const auto scales = parse_doubles(args.get_string("scales", "0.1,0.25"));
  const auto stream_counts =
      parse_sizes(args.get_string("streams", "1,2,4,8"));
  const std::size_t batch_elements =
      static_cast<std::size_t>(args.get_int("batch-elements", 16384));
  core::ShinglingParams params;
  params.c1 = static_cast<u32>(args.get_int("c1", params.c1));
  params.c2 = static_cast<u32>(args.get_int("c2", params.c2));

  // Two regimes by default: the paper's trial counts (compute-bound — one
  // lane already saturates the modeled compute engine, so streams >= 2 all
  // land on the kernel-busy floor) and a transfer-bound regime with fewer
  // trials per batch, where the per-batch H2D share is big enough that
  // only the multi-lane pipeline (streams >= 4) can hide it behind the
  // previous batch's kernels. --c1/--c2 replace both with one custom
  // regime.
  struct Regime {
    std::string name;
    u32 c1, c2;
  };
  std::vector<Regime> regimes;
  if (args.has("c1") || args.has("c2")) {
    regimes.push_back({"custom", params.c1, params.c2});
  } else {
    regimes.push_back({"paper trials (c1=200, c2=100)", 200, 100});
    regimes.push_back({"transfer-bound (c1=20, c2=10)", 20, 10});
  }

  std::printf("=== Ablation: sync vs async transfers, k-stream pipeline "
              "===\n");
  std::printf("(makespan and exposed columns are MODELED device time)\n\n");

  for (double scale : scales) {
    const auto pg = bench::make_2m_analog(scale);
    bench::print_graph_banner("2M analog x " + util::AsciiTable::fmt(scale, 2),
                              pg.graph);

    for (const Regime& regime : regimes) {
      auto run = [&](std::size_t streams) {
        device::DeviceSpec spec = device::DeviceSpec::tesla_k20();
        spec.global_memory_bytes = device_mb << 20;
        device::DeviceContext ctx(spec);
        core::ShinglingParams p = params;
        p.c1 = regime.c1;
        p.c2 = regime.c2;
        core::GpClustOptions options;
        options.num_streams = streams;
        options.max_batch_elements = batch_elements;
        core::GpClust gp(ctx, p, options);
        core::GpClustReport report;
        auto c = gp.cluster(pg.graph, &report);
        return report;
      };

      std::printf("-- %s --\n", regime.name.c_str());
      util::AsciiTable table({"streams", "lanes", "batches",
                              "makespan [modeled]", "exposed GPU",
                              "exposed c->g", "exposed g->c",
                              "exposed transfer share", "saved vs sync"});
      double sync_makespan = 0.0;
      for (std::size_t streams : stream_counts) {
        const auto report = run(streams);
        if (streams == 1) sync_makespan = report.device_makespan;
        const double exposed_transfer =
            report.h2d_exposed_seconds + report.d2h_exposed_seconds;
        table.add_row(
            {std::to_string(streams), std::to_string(report.pass1.num_lanes),
             std::to_string(report.pass1.num_batches +
                            report.pass2.num_batches),
             util::AsciiTable::fmt(report.device_makespan, 4) + " s",
             util::AsciiTable::fmt(report.gpu_exposed_seconds, 4) + " s",
             util::AsciiTable::fmt(report.h2d_exposed_seconds, 4) + " s",
             util::AsciiTable::fmt(report.d2h_exposed_seconds, 4) + " s",
             util::AsciiTable::pct(
                 report.device_makespan > 0
                     ? exposed_transfer / report.device_makespan
                     : 0.0,
                 1),
             util::AsciiTable::fmt(sync_makespan - report.device_makespan, 4) +
                 " s"});
      }
      std::printf("%s\n", table.render().c_str());
    }
  }

  std::printf("expected shape: streams=2 reproduces the async engine's "
              "makespan (it hides g->c behind the next trial's kernels); "
              "streams>=4 additionally drives the exposed c->g column to "
              "~zero by uploading batch i+1 while batch i computes, a "
              "strict further gain in every regime. What's left exposed "
              "is the kernel engine.\n");
  return 0;
}
