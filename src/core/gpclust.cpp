#include "core/gpclust.hpp"

#include "graph/graph_io.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace gpclust::core {

GpClust::GpClust(device::DeviceContext& ctx, ShinglingParams params,
                 GpClustOptions options)
    : ctx_(ctx), params_(params), options_(options) {}

Clustering GpClust::cluster(const graph::CsrGraph& g, GpClustReport* report) {
  return run(g, report, /*disk_seconds=*/0.0);
}

Clustering GpClust::cluster_file(const std::string& path,
                                 GpClustReport* report) {
  util::WallTimer disk;
  double disk_seconds = 0.0;
  graph::CsrGraph g;
  {
    obs::HostSpan span(options_.tracer, "load");
    g = graph::read_csr_binary(path);
    disk_seconds = disk.seconds();
  }
  return run(g, report, disk_seconds);
}

Clustering GpClust::run(const graph::CsrGraph& g, GpClustReport* report,
                        double disk_seconds) {
  params_.validate(g.num_vertices());
  ctx_.reset_timeline();

  obs::Tracer* tracer = options_.tracer;
  // Modeled ops, transfer bytes and the arena high-water mark land in the
  // run's tracer; the run's fault plan fires at the device's sites.
  const device::ScopedBinding bind(ctx_, tracer, options_.fault_plan);
  obs::add_counter(tracer, "sequences", g.num_vertices());

  util::MetricsRegistry reg;
  DevicePassOptions pass_options;
  pass_options.num_streams = options_.num_streams;
  pass_options.max_batch_elements = options_.max_batch_elements;
  pass_options.resilience = options_.resilience;

  const HashFamily family1(params_.c1, params_.prime, params_.seed, 1);
  const HashFamily family2(params_.c2, params_.prime, params_.seed, 2);

  DevicePassStats stats1, stats2;
  // The summed d2h_bytes counter, split per pass below.
  const u64 d2h_start = tracer != nullptr ? tracer->counter("d2h_bytes") : 0;

  // First level shingling on the device (Algorithm 2 lines 10-14).
  ShingleTuples tuples1 =
      extract_shingles_device(ctx_, g.offsets(), g.adjacency(), family1,
                              params_.s1, pass_options, &reg, "cpu", &stats1,
                              "pass1");
  const u64 d2h_pass1 = tracer != nullptr ? tracer->counter("d2h_bytes") : 0;

  // Aggregate the shingle graph on the CPU (Algorithm 2 line 16).
  BipartiteShingleGraph gi;
  {
    util::ScopedTimer t(reg, "cpu");
    obs::HostSpan span(tracer, "aggregate1");
    gi = aggregate_tuples(std::move(tuples1));
  }
  // Identical G_I lists get identical second-level shingles, so pass 2
  // runs over each distinct list once (DESIGN.md §8).
  DistinctLists distinct;
  {
    util::ScopedTimer t(reg, "cpu");
    obs::HostSpan span(tracer, "dedup");
    distinct = distinct_lists(gi, params_.s2);
  }

  // Second level shingling on the device (lines 17-21). Each batch's
  // tuples merge into the components as the batch commits (the final
  // aggregation of line 22), so G_II is never built.
  S1ComponentBuilder merge(distinct.lists.num_left());
  extract_shingles_device(ctx_, distinct.lists.offsets, distinct.lists.members,
                          family2, params_.s2, pass_options, &reg, "cpu",
                          &stats2, "pass2", [&](ShingleTuples&& batch) {
                            util::ScopedTimer t(reg, "cpu");
                            obs::HostSpan span(tracer, "aggregate2");
                            merge.add(std::move(batch));
                          });
  if (tracer != nullptr) {
    const u64 d2h_end = tracer->counter("d2h_bytes");
    tracer->add_counter("pass1.d2h_bytes", d2h_pass1 - d2h_start);
    tracer->add_counter("pass2.d2h_bytes", d2h_end - d2h_pass1);
  }
  obs::add_counter(tracer, "pass1.tuples", stats1.num_tuples);
  obs::add_counter(tracer, "pass2.tuples", stats2.num_tuples);
  obs::add_counter(tracer, "pass2.lists", distinct.lists.num_left());
  obs::add_counter(tracer, "g1.shingles", gi.num_left());
  obs::add_counter(tracer, "g2.shingles", merge.num_shingles());
  obs::add_counter(tracer, "shingles", gi.num_left() + merge.num_shingles());

  // Dense subgraph reporting (line 23).
  Clustering result;
  {
    util::ScopedTimer t(reg, "cpu");
    obs::HostSpan span(tracer, "report");
    result = report_dense_subgraphs(
        gi, distinct.expand(merge.components()), g.num_vertices(),
        params_.mode);
  }

  if (report != nullptr) {
    report->cpu_seconds = reg.get("cpu");
    report->gpu_seconds = ctx_.gpu_seconds();
    report->h2d_seconds = ctx_.h2d_seconds();
    report->d2h_seconds = ctx_.d2h_seconds();
    report->disk_seconds = disk_seconds;
    report->device_makespan = ctx_.makespan();
    report->gpu_exposed_seconds = ctx_.gpu_exposed_seconds();
    report->h2d_exposed_seconds = ctx_.h2d_exposed_seconds();
    report->d2h_exposed_seconds = ctx_.d2h_exposed_seconds();
    report->pass1 = stats1;
    report->pass2 = stats2;
  }
  return result;
}

}  // namespace gpclust::core
