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
  ctx_.reset_timeline();
  obs::Tracer* tracer = options_.tracer;
  // Modeled ops, transfer bytes and the arena high-water mark land in the
  // run's tracer; the run's fault plan fires at the device's sites.
  const device::ScopedBinding bind(ctx_, tracer, options_.fault_plan);

  util::MetricsRegistry reg;
  DevicePassOptions pass_options;
  pass_options.num_streams = options_.num_streams;
  pass_options.max_batch_elements = options_.max_batch_elements;
  pass_options.resilience = options_.resilience;

  // Both shingling levels run on the device; pass 2 hands each batch on
  // as it commits. The summed d2h_bytes counter is split per pass.
  const auto d2h = [tracer] {
    return tracer != nullptr ? tracer->counter("d2h_bytes") : u64{0};
  };
  DevicePassStats stats[2];
  const auto pass = [&](int level) -> ShinglingPass {
    return [&, level](std::span<const u64> offsets,
                      std::span<const u32> members, const HashFamily& family,
                      u32 s, const TupleSink& sink) {
      const std::string phase = "pass" + std::to_string(level);
      const u64 d2h_before = d2h();
      ShingleTuples tuples = extract_shingles_device(
          ctx_, offsets, members, family, s, pass_options, &reg, "cpu",
          &stats[level - 1], phase, sink);
      obs::add_counter(tracer, phase + ".d2h_bytes", d2h() - d2h_before);
      return tuples;
    };
  };
  double host_seconds = 0.0;
  Clustering result = two_pass_shingling(g, params_, pass(1), pass(2), tracer,
                                         &host_seconds);

  if (report != nullptr) {
    report->cpu_seconds = reg.get("cpu") + host_seconds;
    report->gpu_seconds = ctx_.gpu_seconds();
    report->h2d_seconds = ctx_.h2d_seconds();
    report->d2h_seconds = ctx_.d2h_seconds();
    report->disk_seconds = disk_seconds;
    report->device_makespan = ctx_.makespan();
    report->gpu_exposed_seconds = ctx_.gpu_exposed_seconds();
    report->h2d_exposed_seconds = ctx_.h2d_exposed_seconds();
    report->d2h_exposed_seconds = ctx_.d2h_exposed_seconds();
    report->pass1 = stats[0];
    report->pass2 = stats[1];
  }
  return result;
}

}  // namespace gpclust::core
