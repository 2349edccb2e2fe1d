#include "core/serial_pclust.hpp"

#include <array>

#include "core/shingle.hpp"
#include "obs/trace.hpp"

namespace gpclust::core {

namespace {
constexpr u32 kMaxShingleSize = 64;
}

ShingleTuples extract_shingles_serial(std::span<const u64> offsets,
                                      std::span<const u32> members,
                                      const HashFamily& family, u32 s) {
  GPCLUST_CHECK(!offsets.empty() && offsets.back() == members.size(),
                "offsets must cover the member array");
  GPCLUST_CHECK(s >= 1 && s <= kMaxShingleSize, "unsupported shingle size");
  const std::size_t num_left = offsets.size() - 1;

  ShingleTuples tuples;
  std::array<u64, kMaxShingleSize> minima;
  for (u32 j = 0; j < family.size(); ++j) {
    const AffineHash& h = family[j];
    for (std::size_t i = 0; i < num_left; ++i) {
      const std::size_t len =
          static_cast<std::size_t>(offsets[i + 1] - offsets[i]);
      if (len < s) continue;  // fewer than s links: no shingle (paper §III-B)
      min_s_images({members.data() + offsets[i], len}, h, s,
                   {minima.data(), s});
      const ShingleId id = hash_shingle(j, {minima.data(), s});
      tuples.append(id, static_cast<u32>(i));
    }
  }
  return tuples;
}

Clustering SerialShingler::cluster(const graph::CsrGraph& g,
                                   obs::Tracer* tracer) const {
  params_.validate(g.num_vertices());
  obs::add_counter(tracer, "sequences", g.num_vertices());

  const HashFamily family1(params_.c1, params_.prime, params_.seed, 1);
  const HashFamily family2(params_.c2, params_.prime, params_.seed, 2);

  ShingleTuples tuples1;
  {
    obs::HostSpan span(tracer, "shingling1");
    tuples1 = extract_shingles_serial(g.offsets(), g.adjacency(), family1,
                                      params_.s1);
  }
  const std::size_t num_tuples1 = tuples1.size();
  BipartiteShingleGraph gi;
  {
    obs::HostSpan span(tracer, "aggregate1");
    gi = aggregate_tuples(std::move(tuples1));
  }

  // Pass 2 over each distinct list once, as in GpClust (DESIGN.md §8).
  DistinctLists distinct;
  {
    obs::HostSpan span(tracer, "dedup");
    distinct = distinct_lists(gi, params_.s2);
  }

  ShingleTuples tuples2;
  {
    obs::HostSpan span(tracer, "shingling2");
    tuples2 = extract_shingles_serial(distinct.lists.offsets,
                                      distinct.lists.members, family2,
                                      params_.s2);
  }
  // The same component merge GpClust runs at each batch commit, over the
  // single serial pass: G_II is never built.
  const std::size_t num_tuples2 = tuples2.size();
  S1ComponentBuilder merge(distinct.lists.num_left());
  {
    obs::HostSpan span(tracer, "aggregate2");
    merge.add(std::move(tuples2));
  }
  obs::add_counter(tracer, "pass1.tuples", num_tuples1);
  obs::add_counter(tracer, "pass2.tuples", num_tuples2);
  obs::add_counter(tracer, "pass2.lists", distinct.lists.num_left());
  obs::add_counter(tracer, "tuples", num_tuples1 + num_tuples2);
  obs::add_counter(tracer, "g1.shingles", gi.num_left());
  obs::add_counter(tracer, "g2.shingles", merge.num_shingles());
  obs::add_counter(tracer, "shingles", gi.num_left() + merge.num_shingles());

  obs::HostSpan span(tracer, "report");
  return report_dense_subgraphs(gi, distinct.expand(merge.components()),
                                g.num_vertices(), params_.mode);
}

}  // namespace gpclust::core
