// Ablation: k-stream batch pipelining and sharded host aggregation.
//
// Generalizes bench_ablation_async's two-mode comparison to the DESIGN.md
// §8 pipeline: streams=1 is the paper's synchronous Thrust behavior,
// streams=2 the legacy async overlap, and 2L streams keep L batches in
// flight so batch i's D2H overlaps batch i+1's H2D and kernels. The first
// table sweeps the stream count and decomposes the modeled makespan into
// exposed (critical-path) kernel/H2D/D2H seconds — the exposed transfer
// column is the overhead the pipeline drives toward zero. The second
// table sweeps the host aggregation shard (bucket) count on the same tuple
// stream and reports measured wall time: once transfers overlap away, this
// measured host term is what dominates the end-to-end run. shards=1 is the
// default, whose bucket count is derived from the tuple count.
//
// Device memory defaults small (--device-mb=24) so every scale splits into
// multiple batches — cross-batch overlap needs batches to overlap.
//
// Flags: --scales (comma list, default "0.1,0.25"), --streams (default
// "1,2,4,8"), --shards (default "1,4,16,64"), --device-mb,
// --batch-elements (default 16384; a fixed cap so every stream count runs
// the identical batch partition — otherwise the deeper pipelines derive
// smaller default batches from the lane-split arena budget and the extra
// per-batch launch/latency cost pollutes the overlap comparison).

#include <cstdio>
#include <sstream>
#include <vector>

#include "core/device_shingling.hpp"
#include "core/gpclust.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
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
  const auto shard_counts =
      parse_sizes(args.get_string("shards", "1,4,16,64"));
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

  std::printf("=== Ablation: k-stream pipeline + sharded aggregation ===\n");
  std::printf("(makespan and exposed columns are MODELED device time; "
              "aggregate columns are MEASURED host wall time)\n\n");

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
        options.pipeline.num_streams = streams;
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

    // Shard sweep on the same tuple stream: regenerate the level-1 tuples
    // once, then time each shard count over an identical copy. This is
    // measured host time (the build host's wall clock), so run it alone.
    device::DeviceSpec spec = device::DeviceSpec::tesla_k20();
    spec.global_memory_bytes = device_mb << 20;
    device::DeviceContext ctx(spec);
    const core::HashFamily family1(params.c1, params.prime, params.seed, 1);
    core::DevicePassOptions pass_options;
    const core::ShingleTuples tuples = core::extract_shingles_device(
        ctx, pg.graph.offsets(), pg.graph.adjacency(), family1, params.s1,
        pass_options);

    util::AsciiTable agg({"agg shards", "tuples", "aggregate [measured]",
                          "speedup vs first row"});
    double first_seconds = 0.0;
    for (std::size_t shards : shard_counts) {
      core::ShingleTuples working = tuples;
      util::WallTimer timer;
      const auto g = core::aggregate_tuples_sharded(
          std::move(working), static_cast<u32>(shards));
      const double seconds = timer.seconds();
      if (shards == shard_counts.front()) first_seconds = seconds;
      agg.add_row({std::to_string(shards), std::to_string(tuples.size()),
                   util::AsciiTable::fmt(seconds, 3) + " s",
                   util::AsciiTable::fmt(
                       seconds > 0 ? first_seconds / seconds : 0.0, 2) +
                       "x"});
    }
    std::printf("%s\n", agg.render().c_str());
  }

  std::printf("expected shape: streams=2 reproduces the async engine's "
              "makespan (it hides g->c behind the next trial's kernels); "
              "streams>=4 additionally drives the exposed c->g column to "
              "~zero by uploading batch i+1 while batch i computes, a "
              "strict further gain in every regime and the bulk of the "
              "remaining win in the transfer-bound one. What's left exposed "
              "is the serialized g->c DMA-engine floor — and the measured "
              "host aggregation, which the shard sweep attacks.\n");
  return 0;
}
