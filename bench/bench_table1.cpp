// Reproduces Table I: serial runtime and the per-component runtime of
// gpClust (CPU, GPU, Data_c->g, Data_g->c, Disk I/O), with total and
// GPU-part speedups, for the 20K-analog and the (scaled) 2M-analog input
// graphs. Also prints the serial profile supporting the paper's "~80% of
// serial runtime is in the two shingling levels" claim (§III-C).
//
// Measurement model (DESIGN.md §1): serial and CPU columns are measured
// wall time on this host; GPU and transfer columns are modeled seconds
// from the K20-calibrated device cost model. The GPU speedup column is
//   (serial shingling time) / (modeled GPU time)
// which is the internally consistent definition of the paper's 20K row
// (339.63 s / 7.57 s = 44.86).
//
// The gpClust per-component columns are regenerated from the obs trace of
// the run (host-measured spans for CPU/disk, device-modeled kernel and
// copy spans for GPU/Data_c->g/Data_g->c) — the same attribution the
// chrome://tracing export carries — and cross-checked against the
// pipeline's own GpClustReport.
//
// Flags: --scale20k, --scale2m (workload scale), --quick (tiny run; each
//        host-measured column is the best of 3 runs, as CI gates it),
//        --trace-out=PREFIX (write PREFIX<row>.json chrome traces),
//        --json=PATH (machine-readable rows, schema in docs/bench_json.md).
// Exits 1 if either self-check (serial == gpClust partition, trace ==
// GpClustReport device columns) fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/gpclust.hpp"
#include "core/serial_pclust.hpp"
#include "graph/graph_io.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace gpclust {
namespace {

struct RowResult {
  std::string name;
  std::size_t non_singleton = 0;
  std::size_t edges = 0;
  double cpu = 0, gpu = 0, h2d = 0, d2h = 0, disk = 0;
  double emulate = 0;  ///< host seconds spent executing the modeled kernels
  double makespan = 0;  ///< modeled device seconds of the gpClust run
  double total = 0;
  double serial_total = 0;
  double serial_shingling = 0;
  double serial_hash_sort = 0;  ///< shingling plus both aggregations
  // Deterministic work counts of the gpClust run (its tracer counters).
  u64 tuples1 = 0, tuples2 = 0;
  u64 pass2_lists = 0;  ///< the distinct G_I lists pass 2 ran on
  u64 g1_shingles = 0, g2_shingles = 0;
  u64 d2h_bytes = 0, d2h1_bytes = 0, d2h2_bytes = 0;
  std::size_t families = 0;  ///< gpClust's clusters, singletons included
  bool consistent = true;  ///< both self-checks below passed
};

/// Measured host seconds the simulator spent executing the modeled device
/// kernels (the passes' "<phase>.emulate" spans). A real GPU runs that work
/// itself — its time is the modeled GPU column — so it stays out of the
/// paper's CPU column and is reported on its own.
obs::HostSeconds emulation_seconds(const obs::Tracer& tracer) {
  obs::HostSeconds total;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.domain == obs::Domain::HostMeasured && e.depth == 0 &&
        e.name.ends_with(".emulate")) {
      total += obs::HostSeconds{e.duration_seconds};
    }
  }
  return total;
}

RowResult run_instance(const std::string& name, const graph::CsrGraph& g,
                       const core::ShinglingParams& params,
                       const std::string& trace_prefix) {
  RowResult row;
  row.name = name;
  const auto stats = graph::compute_graph_stats(g);
  row.non_singleton = stats.num_non_singletons;
  row.edges = stats.num_edges;

  // Serial baseline (pClust), measured; its phase spans give the profile.
  obs::Tracer serial_tracer;
  util::WallTimer serial_timer;
  core::SerialShingler serial(params);
  auto serial_result = serial.cluster(g, &serial_tracer);
  row.serial_total = serial_timer.seconds();
  row.serial_shingling = (serial_tracer.host_total("shingling1") +
                          serial_tracer.host_total("shingling2"))
                             .value;

  // gpClust with the K20-calibrated simulated device, loading the graph
  // from disk like the paper's pipeline does.
  const auto path =
      (std::filesystem::temp_directory_path() / ("gpclust_t1_" + name + ".bin"))
          .string();
  graph::write_csr_binary(g, path);

  device::DeviceContext ctx(device::DeviceSpec::tesla_k20());
  obs::Tracer tracer;
  core::GpClustOptions options;
  options.tracer = &tracer;
  core::GpClust gp(ctx, params, options);
  core::GpClustReport report;
  auto gpu_result = gp.cluster_file(path, &report);
  std::filesystem::remove(path);

  // Table columns come from the trace: measured host spans fill the CPU
  // and disk columns, modeled device spans fill the GPU and transfer
  // columns — the domains stay separate all the way into the table.
  const obs::HostSeconds disk = tracer.host_total("load");
  const obs::HostSeconds emulate = emulation_seconds(tracer);
  const obs::HostSeconds cpu = tracer.host_busy() - disk - emulate;
  row.cpu = cpu.value;
  row.emulate = emulate.value;
  row.gpu = tracer.modeled_category_total("kernel").value;
  row.h2d = tracer.modeled_category_total("copy_h2d").value;
  row.d2h = tracer.modeled_category_total("copy_d2h").value;
  row.disk = disk.value;
  row.makespan = report.device_makespan;
  row.total = row.cpu + row.disk + row.makespan;
  row.tuples1 = tracer.counter("pass1.tuples");
  row.tuples2 = tracer.counter("pass2.tuples");
  row.g1_shingles = tracer.counter("g1.shingles");
  row.g2_shingles = tracer.counter("g2.shingles");
  row.pass2_lists = tracer.counter("pass2.lists");
  row.d2h_bytes = tracer.counter("d2h_bytes");
  row.d2h1_bytes = tracer.counter("pass1.d2h_bytes");
  row.d2h2_bytes = tracer.counter("pass2.d2h_bytes");
  row.families = gpu_result.num_clusters();

  // The pipeline's own report must agree with the trace-derived columns.
  if (std::abs(row.gpu - report.gpu_seconds) > 1e-9 ||
      std::abs(row.h2d - report.h2d_seconds) > 1e-9 ||
      std::abs(row.d2h - report.d2h_seconds) > 1e-9) {
    std::fprintf(stderr,
                 "ERROR: trace-derived device columns disagree with "
                 "GpClustReport!\n");
    row.consistent = false;
  }

  if (!trace_prefix.empty()) {
    const std::string trace_path = trace_prefix + name + ".json";
    obs::write_chrome_trace(tracer, trace_path);
    std::fprintf(stderr, "  wrote %s (%zu events)\n", trace_path.c_str(),
                 tracer.num_events());
  }

  // Sanity: both implementations agree (also asserted by the test suite).
  serial_result.normalize();
  gpu_result.normalize();
  if (serial_result.digest() != gpu_result.digest()) {
    std::fprintf(stderr, "ERROR: serial and gpClust outputs differ!\n");
    row.consistent = false;
  }

  // The paper's §III-C profile claim counts "the hashing and sorting
  // operations in the first and second level shingling" — extraction plus
  // the grouping of each level's tuples (G_I's gather sort, the pass-2
  // component merge).
  row.serial_hash_sort = row.serial_shingling +
                         (serial_tracer.host_total("aggregate1") +
                          serial_tracer.host_total("aggregate2"))
                             .value;
  return row;
}

/// Runs one row `reps` times and keeps each host-measured column's fastest
/// run: the host is shared with other work, so one run can be 2x off.
/// Counts and modeled columns are deterministic; a run that disagrees on
/// any of them fails the row's self-check. Traces come from the first run.
RowResult best_of_runs(int reps, const std::string& name,
                       const graph::CsrGraph& g,
                       const core::ShinglingParams& params,
                       const std::string& trace_prefix) {
  RowResult best = run_instance(name, g, params, trace_prefix);
  for (int rep = 1; rep < reps; ++rep) {
    const RowResult r = run_instance(name, g, params, "");
    if (r.tuples1 != best.tuples1 || r.tuples2 != best.tuples2 ||
        r.pass2_lists != best.pass2_lists ||
        r.g1_shingles != best.g1_shingles ||
        r.g2_shingles != best.g2_shingles || r.d2h_bytes != best.d2h_bytes ||
        r.families != best.families || r.gpu != best.gpu ||
        r.h2d != best.h2d || r.d2h != best.d2h ||
        r.makespan != best.makespan) {
      std::fprintf(stderr, "ERROR: repeated %s runs disagree on a count or "
                   "a modeled column!\n", name.c_str());
      best.consistent = false;
    }
    best.consistent = best.consistent && r.consistent;
    best.cpu = std::min(best.cpu, r.cpu);
    best.disk = std::min(best.disk, r.disk);
    best.emulate = std::min(best.emulate, r.emulate);
    best.serial_total = std::min(best.serial_total, r.serial_total);
    best.serial_shingling = std::min(best.serial_shingling, r.serial_shingling);
    best.serial_hash_sort = std::min(best.serial_hash_sort, r.serial_hash_sort);
  }
  best.total = best.cpu + best.disk + best.makespan;
  std::printf("  serial profile [%s]: shingle extraction %.1f%%, "
              "hashing+sorting total %.1f%% of %.2fs\n",
              name.c_str(), 100.0 * best.serial_shingling / best.serial_total,
              100.0 * best.serial_hash_sort / best.serial_total,
              best.serial_total);
  std::printf("  host emulation of the modeled kernels [%s]: %.2fs "
              "(not in the CPU column)\n",
              name.c_str(), best.emulate);
  return best;
}

}  // namespace
}  // namespace gpclust

int main(int argc, char** argv) {
  using namespace gpclust;
  const util::CliArgs args(argc, argv);
  const bool quick = args.get_bool("quick", false);
  const double scale20k = args.get_double("scale20k", quick ? 0.1 : 1.0);
  const double scale2m = args.get_double("scale2m", quick ? 0.05 : 1.0);

  core::ShinglingParams params;  // paper defaults: s=2, c1=200, c2=100
  std::printf("=== Table I: serial runtime and gpClust component runtime "
              "(seconds) ===\n");
  std::printf("params: s1=%u c1=%u s2=%u c2=%u\n\n", params.s1, params.c1,
              params.s2, params.c2);

  const auto g20 = bench::make_20k_analog(scale20k);
  bench::print_graph_banner("20K-analog", g20.graph);
  const auto g2m = bench::make_2m_analog(scale2m);
  bench::print_graph_banner("2M-analog", g2m.graph);
  std::printf("\n");

  const auto trace_prefix = args.get_string("trace-out", "");
  const int reps = quick ? 3 : 1;
  std::vector<RowResult> rows;
  rows.push_back(
      best_of_runs(reps, "20K-analog", g20.graph, params, trace_prefix));
  rows.push_back(
      best_of_runs(reps, "2M-analog", g2m.graph, params, trace_prefix));
  std::printf("\n");

  util::AsciiTable table({"graph", "#non-singleton", "#edges", "CPU", "GPU",
                          "Data c->g", "Data g->c", "Disk I/O", "Total",
                          "Serial", "Total speedup", "GPU speedup"});
  for (const auto& r : rows) {
    table.add_row({r.name, std::to_string(r.non_singleton),
                   std::to_string(r.edges), util::AsciiTable::fmt(r.cpu),
                   util::AsciiTable::fmt(r.gpu), util::AsciiTable::fmt(r.h2d),
                   util::AsciiTable::fmt(r.d2h), util::AsciiTable::fmt(r.disk),
                   util::AsciiTable::fmt(r.total),
                   util::AsciiTable::fmt(r.serial_total),
                   util::AsciiTable::fmt(r.serial_total / r.total, 2) + "x",
                   util::AsciiTable::fmt(r.serial_shingling / r.gpu, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("paper reference: 20K -> total 5.88x, GPU part 44.86x; "
              "2M -> total 7.18x (GPU column modeled from the K20-calibrated "
              "cost model; CPU/serial measured on this host).\n");

  const auto json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    obs::json::Array json_rows;
    for (const auto& r : rows) {
      // The `_modeled_s` suffix marks simulated-device seconds; everything
      // else is host-measured — the two domains never share a field.
      json_rows.push_back(obs::json::object({
          {"graph", obs::json::string(r.name)},
          {"non_singleton",
           obs::json::number(static_cast<double>(r.non_singleton))},
          {"edges", obs::json::number(static_cast<double>(r.edges))},
          {"cpu_s", obs::json::number(r.cpu)},
          {"gpu_modeled_s", obs::json::number(r.gpu)},
          {"h2d_modeled_s", obs::json::number(r.h2d)},
          {"d2h_modeled_s", obs::json::number(r.d2h)},
          {"disk_s", obs::json::number(r.disk)},
          {"emulate_s", obs::json::number(r.emulate)},
          {"total_s", obs::json::number(r.total)},
          {"serial_s", obs::json::number(r.serial_total)},
          {"serial_shingling_s", obs::json::number(r.serial_shingling)},
          {"total_speedup", obs::json::number(r.serial_total / r.total)},
          {"gpu_speedup", obs::json::number(r.serial_shingling / r.gpu)},
          {"tuples1", obs::json::number(static_cast<double>(r.tuples1))},
          {"tuples2", obs::json::number(static_cast<double>(r.tuples2))},
          {"g1_shingles",
           obs::json::number(static_cast<double>(r.g1_shingles))},
          {"g2_shingles",
           obs::json::number(static_cast<double>(r.g2_shingles))},
          {"pass2_lists",
           obs::json::number(static_cast<double>(r.pass2_lists))},
          {"d2h_bytes", obs::json::number(static_cast<double>(r.d2h_bytes))},
          {"d2h1_bytes",
           obs::json::number(static_cast<double>(r.d2h1_bytes))},
          {"d2h2_bytes",
           obs::json::number(static_cast<double>(r.d2h2_bytes))},
          {"families", obs::json::number(static_cast<double>(r.families))},
      }));
    }
    const auto doc = obs::json::object({
        {"bench", obs::json::string("table1")},
        {"time_domain", obs::json::string("mixed_labeled")},
        {"params", obs::json::object({
                       {"s1", obs::json::number(params.s1)},
                       {"c1", obs::json::number(params.c1)},
                       {"s2", obs::json::number(params.s2)},
                       {"c2", obs::json::number(params.c2)},
                   })},
        {"rows", obs::json::array(json_rows)},
    });
    std::ofstream out(json_path);
    GPCLUST_CHECK(out.good(), "cannot open --json file");
    out << obs::json::dump(doc) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  for (const auto& r : rows) {
    if (!r.consistent) return 1;
  }
  return 0;
}
