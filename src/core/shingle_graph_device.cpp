#include <algorithm>

#include "core/shingle_graph.hpp"
#include "core/shingle_graph_detail.hpp"
#include "device/radix_sort.hpp"
#include "obs/trace.hpp"

namespace gpclust::core {

namespace {

/// Deduplicates a sorted packed array and groups it into the bipartite
/// shingle graph.
BipartiteShingleGraph group_packed(std::vector<__uint128_t>&& packed) {
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());

  BipartiteShingleGraph g;
  g.members.reserve(packed.size());
  g.offsets.push_back(0);
  ShingleId current = 0;
  bool in_group = false;
  for (__uint128_t key : packed) {
    const ShingleId s = static_cast<ShingleId>(key >> 32);
    const u32 o = static_cast<u32>(key & 0xffffffffu);
    if (!in_group || s != current) {
      if (in_group) g.offsets.push_back(g.members.size());  // close group
      current = s;
      in_group = true;
    }
    g.members.push_back(o);
  }
  if (in_group) g.offsets.push_back(g.members.size());
  return g;
}

}  // namespace

BipartiteShingleGraph aggregate_tuples_device(device::DeviceContext& ctx,
                                              ShingleTuples&& tuples,
                                              std::size_t max_batch_elements,
                                              util::MetricsRegistry* metrics,
                                              const std::string& cpu_metric,
                                              const std::string& trace_phase) {
  util::MetricsRegistry local;
  util::MetricsRegistry& reg = metrics ? *metrics : local;
  obs::Tracer* tracer = ctx.tracer();
  obs::DevicePhaseScope phase_scope(tracer, trace_phase);
  const std::size_t n = tuples.size();
  GPCLUST_CHECK(tuples.owner.size() == n, "tuple arrays out of sync");

  std::size_t batch = max_batch_elements;
  if (batch == 0) {
    // Per tuple on the device: shingle u64 + owner u32, doubled for the
    // radix scratch arrays; keep half the free memory in reserve.
    batch = std::max<std::size_t>(1, ctx.arena().available() / 2 / 24);
  }

  // Sort each device-sized chunk by (shingle, owner) on the device, then
  // merge the sorted chunks on the host.
  std::vector<__uint128_t> merged;
  merged.reserve(n);
  std::vector<std::size_t> run_bounds = {0};

  std::vector<u64> shingles_h;
  std::vector<u32> owners_h;
  for (std::size_t begin = 0; begin < n; begin += batch) {
    const std::size_t count = std::min(batch, n - begin);

    device::DeviceVector<u64> d_shingles(ctx, count);
    device::DeviceVector<u32> d_owners(ctx, count);
    device::copy_to_device<u64>(
        d_shingles, {tuples.shingle.data() + begin, count});
    device::copy_to_device<u32>(d_owners,
                                {tuples.owner.data() + begin, count});

    // Least-significant key first: a stable radix pass over the owners,
    // then over the shingles, yields (shingle, owner) order.
    device::radix_sort_by_key(d_owners, d_shingles);
    device::radix_sort_by_key(d_shingles, d_owners);

    shingles_h.resize(count);
    owners_h.resize(count);
    device::copy_to_host<u64>(shingles_h, d_shingles);
    device::copy_to_host<u32>(owners_h, d_owners);

    util::ScopedTimer t(reg, cpu_metric);
    obs::HostSpan span(tracer, trace_phase + ".pack");
    for (std::size_t i = 0; i < count; ++i) {
      merged.push_back(detail::pack_tuple(shingles_h[i], owners_h[i]));
    }
    run_bounds.push_back(merged.size());
  }
  tuples.shingle.clear();
  tuples.shingle.shrink_to_fit();
  tuples.owner.clear();
  tuples.owner.shrink_to_fit();

  // Pairwise-merge the sorted runs.
  util::ScopedTimer t(reg, cpu_metric);
  obs::HostSpan span(tracer, trace_phase + ".merge");
  while (run_bounds.size() > 2) {
    std::vector<std::size_t> next = {0};
    for (std::size_t i = 2; i < run_bounds.size(); i += 2) {
      std::inplace_merge(
          merged.begin() + static_cast<std::ptrdiff_t>(run_bounds[i - 2]),
          merged.begin() + static_cast<std::ptrdiff_t>(run_bounds[i - 1]),
          merged.begin() + static_cast<std::ptrdiff_t>(run_bounds[i]));
      next.push_back(run_bounds[i]);
    }
    if (run_bounds.size() % 2 == 0) next.push_back(run_bounds.back());
    run_bounds = std::move(next);
  }
  return group_packed(std::move(merged));
}

}  // namespace gpclust::core
