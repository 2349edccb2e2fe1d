#include "dist/dist_shingling.hpp"

#include <algorithm>
#include <span>

#include "core/cluster_report.hpp"
#include "core/minhash.hpp"
#include "core/serial_pclust.hpp"
#include "core/shingle_graph.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace gpclust::dist {

namespace {

using core::BipartiteShingleGraph;
using core::HashFamily;
using core::ShingleTuples;

/// Exchanges tuples so that shingle id S lands on rank S % size.
ShingleTuples exchange_by_shingle(Communicator& comm, ShingleTuples&& tuples) {
  const std::size_t ranks = comm.size();
  std::vector<std::vector<u64>> shingle_out(ranks);
  std::vector<std::vector<u32>> owner_out(ranks);
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const auto dst = static_cast<RankId>(tuples.shingle[i] % ranks);
    shingle_out[dst].push_back(tuples.shingle[i]);
    owner_out[dst].push_back(tuples.owner[i]);
  }
  tuples = ShingleTuples{};
  ShingleTuples received;
  for (const auto& part : comm.all_to_all(shingle_out, /*tag=*/10)) {
    received.shingle.insert(received.shingle.end(), part.begin(), part.end());
  }
  for (const auto& part : comm.all_to_all(owner_out, /*tag=*/11)) {
    received.owner.insert(received.owner.end(), part.begin(), part.end());
  }
  GPCLUST_CHECK(received.shingle.size() == received.owner.size(),
                "tuple exchange out of sync");
  return received;
}

/// Gathers the ranks' pieces of G_I at the root, concatenated in rank
/// order (matching the global S1 id assignment).
BipartiteShingleGraph gather_pieces(Communicator& comm,
                                    const BipartiteShingleGraph& local) {
  std::vector<u64> sizes(local.num_left());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = local.offsets[i + 1] - local.offsets[i];
  }
  const auto all_sizes = comm.gather_to_root(sizes, 0, 20);
  BipartiteShingleGraph full{{0}, comm.gather_to_root(local.members, 0, 21)};
  for (u64 size : all_sizes) full.offsets.push_back(full.offsets.back() + size);
  GPCLUST_CHECK(full.offsets.back() == full.members.size(),
                "gathered shingle graph inconsistent");
  return full;
}

/// Block bounds of rank r over n items.
std::pair<std::size_t, std::size_t> block_of(std::size_t n, RankId r,
                                             std::size_t ranks) {
  const std::size_t chunk = (n + ranks - 1) / ranks;
  const std::size_t lo = std::min(n, r * chunk);
  return {lo, std::min(n, lo + chunk)};
}

}  // namespace

core::Clustering distributed_cluster(const graph::CsrGraph& g,
                                     const core::ShinglingParams& params,
                                     std::size_t num_ranks, DistStats* stats,
                                     obs::Tracer* tracer,
                                     fault::FaultPlan* fault_plan,
                                     fault::ResiliencePolicy resilience) {
  params.validate(g.num_vertices());
  GPCLUST_CHECK(num_ranks >= 1, "need at least one rank");
  obs::add_counter(tracer, "sequences", g.num_vertices());

  // Rank-down handling: a down rank never comes up. Without resilience
  // that is fatal; with it the run is re-sharded over the survivors (the
  // clustering is bit-identical for any rank count, so reassignment is
  // exactly "run with fewer ranks").
  std::size_t down = 0;
  std::size_t live = num_ranks;
  if (fault_plan != nullptr) {
    std::size_t first_down = num_ranks;
    for (std::size_t r = 0; r < num_ranks; ++r) {
      if (fault_plan->is_rank_down(r)) {
        ++down;
        if (first_down == num_ranks) first_down = r;
      }
    }
    if (down > 0) {
      if (!resilience.enabled()) {
        throw CommError(first_down, "rank_down",
                        "rank marked down by fault plan (resilience off)");
      }
      live = num_ranks - down;
      if (live == 0) {
        throw CommError(first_down, "rank_down",
                        "every rank marked down; nothing to reassign to");
      }
      util::log_warn() << "dist: " << down << " rank(s) down, reassigning "
                       << "shards across " << live << " surviving rank(s)";
      obs::add_counter(tracer, "rank_reassignments", down);
    }
  }

  core::Clustering result;
  u64 exchanged1 = 0, exchanged2 = 0;

  obs::HostSpan ensemble_span(tracer, "dist.cluster");
  run_ranks(live, [&](Communicator& comm) {
    const HashFamily family1(params.c1, params.prime, params.seed, 1);
    const HashFamily family2(params.c2, params.prime, params.seed, 2);

    // ---- Pass I over my block of the shared input graph ------------------
    const auto [lo, hi] = block_of(g.num_vertices(), comm.rank(), comm.size());
    const auto block = std::span(g.offsets()).subspan(lo, hi - lo + 1);
    ShingleTuples mine = exchange_by_shingle(
        comm, core::extract_shingles_serial(
                  block, std::span(g.adjacency()).first(block.back()),
                  family1, params.s1, static_cast<u32>(lo)));
    const u64 pass1_count = comm.all_reduce_sum(mine.size());

    // My piece of G_I, pruned as the engines prune; global ids by prefix.
    std::size_t num_local_s1 = 0;
    BipartiteShingleGraph gi_local =
        core::aggregate_tuples(std::move(mine), params.s2, &num_local_s1);
    const u64 g1_count = comm.all_reduce_sum(num_local_s1);
    const u64 s1_base = comm.exclusive_prefix_sum(gi_local.num_left());
    const u64 num_s1 = comm.all_reduce_sum(gi_local.num_left());

    // ---- Pass II over my piece of G_I; merge my shingle range -----------
    ShingleTuples mine2 = exchange_by_shingle(
        comm, core::extract_shingles_serial(gi_local.offsets, gi_local.members,
                                            family2, params.s2,
                                            static_cast<u32>(s1_base)));
    const u64 pass2_count = comm.all_reduce_sum(mine2.size());
    core::S1ComponentBuilder merge(num_s1);
    merge.add(std::move(mine2));
    const u64 g2_count = comm.all_reduce_sum(merge.num_shingles());

    // ---- Unite the ranks' components and report at the root --------------
    // Each merged S1 node, keyed by its rank and local component: one more
    // builder at the root unites the nodes any rank's component joined.
    const core::S1Components local = merge.components();
    ShingleTuples pairs;
    for (u32 f = 0; f < local.of.size(); ++f) {
      if (local.of[f] == core::S1Components::kNone) continue;
      pairs.append((u64{comm.rank()} << 32) | local.of[f], f);
    }
    ShingleTuples gathered{comm.gather_to_root(pairs.shingle, 0, 30),
                           comm.gather_to_root(pairs.owner, 0, 31)};
    const auto gi_full = gather_pieces(comm, gi_local);
    if (comm.rank() == 0) {
      core::S1ComponentBuilder all(num_s1);
      all.add(std::move(gathered));
      result = core::report_dense_subgraphs(gi_full, all.components(),
                                            g.num_vertices(), params.mode);
      exchanged1 = pass1_count;
      exchanged2 = pass2_count;
      obs::add_counter(tracer, "g1.shingles", g1_count);
      obs::add_counter(tracer, "g2.shingles", g2_count);
      obs::add_counter(tracer, "shingles", g1_count + g2_count);
    }
  }, RankRunOptions{fault_plan, resilience, tracer});

  obs::add_counter(tracer, "tuples", exchanged1 + exchanged2);

  if (stats != nullptr) {
    stats->num_ranks = live;
    stats->tuples_exchanged_pass1 = exchanged1;
    stats->tuples_exchanged_pass2 = exchanged2;
    stats->ranks_reassigned = down;
  }
  return result;
}

}  // namespace gpclust::dist
