#include "core/serial_pclust.hpp"

#include <array>

#include "core/cluster_report.hpp"
#include "core/shingle.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace gpclust::core {

namespace {
constexpr u32 kMaxShingleSize = 64;
}

ShingleTuples extract_shingles_serial(std::span<const u64> offsets,
                                      std::span<const u32> members,
                                      const HashFamily& family, u32 s,
                                      u32 first_owner) {
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
      tuples.append(id, first_owner + static_cast<u32>(i));
    }
  }
  return tuples;
}

Clustering two_pass_shingling(const graph::CsrGraph& g,
                              const ShinglingParams& params,
                              const ShinglingPass& pass1,
                              const ShinglingPass& pass2, obs::Tracer* tracer,
                              double* host_seconds) {
  params.validate(g.num_vertices());
  obs::add_counter(tracer, "sequences", g.num_vertices());
  const HashFamily family1(params.c1, params.prime, params.seed, 1);
  const HashFamily family2(params.c2, params.prime, params.seed, 2);
  util::MetricsRegistry reg;

  ShingleTuples tuples1 =
      pass1(g.offsets(), g.adjacency(), family1, params.s1, {});
  obs::add_counter(tracer, "pass1.tuples", tuples1.size());
  // A list shorter than s2 emits no pass-2 shingle, so Phase III never
  // reads it; the others keep their order, so components do too.
  BipartiteShingleGraph gi;
  std::size_t num_s1 = 0;
  {
    util::ScopedTimer t(reg, "host");
    obs::HostSpan span(tracer, "aggregate1");
    gi = aggregate_tuples(std::move(tuples1), params.s2, &num_s1);
  }
  // Identical lists get identical second-level shingles (DESIGN.md §8).
  DistinctLists distinct;
  {
    util::ScopedTimer t(reg, "host");
    obs::HostSpan span(tracer, "dedup");
    distinct = distinct_lists(gi);
  }

  S1ComponentBuilder merge(distinct.lists.num_left());
  std::size_t num_tuples2 = 0;
  pass2(distinct.lists.offsets, distinct.lists.members, family2, params.s2,
        [&](ShingleTuples&& batch) {
          util::ScopedTimer t(reg, "host");
          obs::HostSpan span(tracer, "aggregate2");
          num_tuples2 += batch.size();
          merge.add(std::move(batch));
        });
  obs::add_counter(tracer, "pass2.tuples", num_tuples2);
  obs::add_counter(tracer, "pass2.lists", distinct.lists.num_left());
  obs::add_counter(tracer, "g1.shingles", num_s1);
  obs::add_counter(tracer, "g2.shingles", merge.num_shingles());
  obs::add_counter(tracer, "shingles", num_s1 + merge.num_shingles());

  Clustering result;
  {
    util::ScopedTimer t(reg, "host");
    obs::HostSpan span(tracer, "report");
    result = report_dense_subgraphs(gi, distinct.expand(merge.components()),
                                    g.num_vertices(), params.mode);
  }
  if (host_seconds != nullptr) *host_seconds = reg.get("host");
  return result;
}

Clustering SerialShingler::cluster(const graph::CsrGraph& g,
                                   obs::Tracer* tracer) const {
  const auto pass = [tracer](const char* phase) -> ShinglingPass {
    return [tracer, phase](std::span<const u64> offsets,
                           std::span<const u32> members,
                           const HashFamily& family, u32 s,
                           const TupleSink& sink) {
      ShingleTuples tuples;
      {
        obs::HostSpan span(tracer, phase);
        tuples = extract_shingles_serial(offsets, members, family, s);
      }
      obs::add_counter(tracer, "tuples", tuples.size());
      if (!sink) return tuples;
      sink(std::move(tuples));
      return ShingleTuples{};
    };
  };
  return two_pass_shingling(g, params_, pass("shingling1"),
                            pass("shingling2"), tracer);
}

}  // namespace gpclust::core
