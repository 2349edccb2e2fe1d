#include "ingest/ingest_session.hpp"

#include <algorithm>
#include <numeric>

#include "core/serial_pclust.hpp"
#include "graph/union_find.hpp"
#include "seq/kmer_postings.hpp"
#include "store/signature.hpp"
#include "util/group_by.hpp"
#include "util/timer.hpp"

namespace gpclust::ingest {

namespace {

constexpr u64 pair_key(u32 a, u32 b) {
  return (static_cast<u64>(a) << 32) | b;
}

/// Rolls the sequence append back unless the batch commits — the strong
/// exception guarantee for ingest(): a thrown verify fault (injected or
/// real) leaves the session exactly as it was.
struct SequenceRollback {
  seq::SequenceSet& sequences;
  std::size_t old_size;
  bool committed = false;
  ~SequenceRollback() {
    if (!committed) sequences.resize(old_size);
  }
};

}  // namespace

IngestSession::IngestSession(IngestConfig config)
    : config_(std::move(config)) {
  GPCLUST_CHECK(config_.graph.seed_mode == align::SeedMode::KmerCount ||
                    config_.graph.seed_mode == align::SeedMode::MinHashLsh,
                "ingest supports the kmer and minhash seed modes (maximal "
                "has no incremental index seam)");
  GPCLUST_CHECK(!config_.graph.prefilter.enabled,
                "the heuristic prefilter tier is not append-consistent; "
                "disable it for ingest");
  GPCLUST_CHECK(config_.shingling.mode == core::ReportMode::Partition,
                "ingest splices strict partitions; use ReportMode::Partition");
  GPCLUST_CHECK(config_.engine == ClusterEngine::Serial ||
                    config_.device != nullptr,
                "the Device engine needs a DeviceContext");
  if (config_.graph.seed_mode == align::SeedMode::MinHashLsh) {
    const align::LshSeedConfig& lsh = config_.graph.lsh;
    lsh.validate();
    sketch_hashes_.emplace(lsh.num_bands * lsh.rows_per_band, lsh.seed);
  }
  if (config_.graph.tracer == nullptr) config_.graph.tracer = config_.tracer;
  if (config_.device_options.tracer == nullptr) {
    config_.device_options.tracer = config_.tracer;
  }
}

IngestSession::IngestSession(IngestConfig config,
                             const store::FamilyStore& base)
    : IngestSession(std::move(config)) {
  // Adopt the snapshot's sequences and partition...
  seq::SequenceSet adopted(base.num_sequences());
  for (std::size_t i = 0; i < base.num_sequences(); ++i) {
    adopted[i].id = std::string(base.id(i));
    adopted[i].residues = std::string(base.sequence(i));
  }
  std::vector<std::vector<VertexId>> clusters(base.num_families);
  for (std::size_t i = 0; i < base.family_of.size(); ++i) {
    GPCLUST_CHECK(base.family_of[i] < base.num_families,
                  "snapshot family label out of range");
    clusters[base.family_of[i]].push_back(static_cast<VertexId>(i));
  }
  for (std::size_t f = 0; f < clusters.size(); ++f) {
    GPCLUST_CHECK(!clusters[f].empty(), "snapshot has an empty family");
    GPCLUST_CHECK(f == 0 || clusters[f - 1].front() < clusters[f].front(),
                  "snapshot families are not in canonical order (ascending "
                  "by smallest member)");
  }

  // ...then rebuild the standing index and edge set by replaying the
  // cascade once over the adopted sequences. ingest() of "everything" into
  // an empty session IS the from-scratch run, so reuse it, then restore
  // the snapshot's partition (which the replay just reproduced — the
  // equivalence tests pin this — but adopting the snapshot's own labels
  // keeps resume honest even if the caller's config differs).
  ingest(adopted);
  clusters_ = std::move(clusters);

  // ingest_with_delta chains its first link off this session's store, so
  // the session's store parameters must rebuild the base exactly — else
  // the link's base_crc could never match the base it extends.
  store::FamilyStore rebuilt = store();
  const u32 rebuilt_crc = store::snapshot_crc(rebuilt);
  if (rebuilt_crc != store::snapshot_crc(base)) {
    throw InvalidArgument(
        "the session's store parameters (k=" +
        std::to_string(config_.store.k) + ", reps per family=" +
        std::to_string(config_.store.reps_per_family) +
        ") do not rebuild the base snapshot; use the parameters the base "
        "was built with");
  }
  last_store_ = std::move(rebuilt);
  last_store_crc_ = rebuilt_crc;
}

core::Clustering IngestSession::cluster_graph(const graph::CsrGraph& g) const {
  if (config_.engine == ClusterEngine::Device) {
    core::GpClust engine(*config_.device, config_.shingling,
                         config_.device_options);
    return engine.cluster(g);
  }
  return core::SerialShingler(config_.shingling).cluster(g, config_.tracer);
}

core::Clustering IngestSession::clustering() const {
  return core::Clustering(clusters_, sequences_.size());
}

store::FamilyStore IngestSession::store() const {
  std::vector<u32> labels(sequences_.size());
  for (std::size_t f = 0; f < clusters_.size(); ++f) {
    for (const VertexId v : clusters_[f]) labels[v] = static_cast<u32>(f);
  }
  return store::build_family_store(sequences_, labels, config_.store);
}

IngestSession::SeedOutput IngestSession::incremental_seed_kmer(
    std::size_t first_new) const {
  const align::KmerIndexConfig& cfg = config_.graph.seeds;
  GPCLUST_CHECK(cfg.k >= 2 && cfg.k <= 12, "k must be in [2, 12]");
  SeedOutput out;

  // The batch's distinct first-occurrence postings, grouped by (code, seq)
  // with the from-scratch index's own group-by, then shifted to session
  // ids (a uniform shift keeps the order).
  std::vector<align::KmerPosting> fresh;
  seq::group_kmer_postings<align::KmerPosting>(
      sequences_.size() - first_new, cfg.k,
      [&](std::size_t i) {
        return std::string_view(sequences_[first_new + i].residues);
      },
      [&](std::size_t total) {
        fresh.resize(total);
        return fresh.data();
      });
  for (align::KmerPosting& p : fresh) p.seq += static_cast<u32>(first_new);
  const auto by_code_seq = [](const align::KmerPosting& x,
                              const align::KmerPosting& y) {
    return std::pair(x.code, x.seq) < std::pair(y.code, y.seq);
  };

  // Merge into the standing (code, seq)-sorted array. Old ids < new ids,
  // so within a code run the old prefix / new suffix split is positional.
  out.merged_postings.resize(postings_.size() + fresh.size());
  std::merge(postings_.begin(), postings_.end(), fresh.begin(), fresh.end(),
             out.merged_postings.begin(), by_code_seq);
  const auto& merged = out.merged_postings;

  // Walk each k-mer the batch touched once. Unmasked runs emit seeds for
  // new-involving pairs; a run whose occupancy crossed max this batch
  // dirties its old-old pairs (append-monotone: old-old candidacy can only
  // be lost, never gained — a code shared by two old sequences already
  // counted both before the batch).
  std::vector<align::PairSeed> seeds;
  for (std::size_t flo = 0; flo < fresh.size();) {
    std::size_t fhi = flo;
    while (fhi < fresh.size() && fresh[fhi].code == fresh[flo].code) ++fhi;
    const u64 code = fresh[flo].code;
    flo = fhi;

    const auto run = std::equal_range(
        merged.begin(), merged.end(), align::KmerPosting{code, 0, 0},
        [](const align::KmerPosting& x, const align::KmerPosting& y) {
          return x.code < y.code;
        });
    const std::size_t lo = static_cast<std::size_t>(run.first - merged.begin());
    const std::size_t hi =
        static_cast<std::size_t>(run.second - merged.begin());
    const std::size_t total = hi - lo;
    std::size_t old_end = lo;
    while (old_end < hi && merged[old_end].seq < first_new) ++old_end;
    const std::size_t n_old = old_end - lo;

    if (total >= 2 && total <= cfg.max_kmer_occurrences) {
      for (std::size_t x = lo; x < hi; ++x) {
        // Pairs (x, y), x < y, skipping old-old: when x is old, start y at
        // the new suffix; when x is new, every later y qualifies.
        for (std::size_t y = std::max(x + 1, old_end); y < hi; ++y) {
          seeds.push_back({pair_key(merged[x].seq, merged[y].seq),
                           static_cast<i32>(merged[x].pos) -
                               static_cast<i32>(merged[y].pos)});
        }
      }
    } else if (n_old >= 2 && n_old <= cfg.max_kmer_occurrences &&
               total > cfg.max_kmer_occurrences) {
      for (std::size_t x = lo; x < old_end; ++x) {
        for (std::size_t y = x + 1; y < old_end; ++y) {
          out.dirty_keys.push_back(pair_key(merged[x].seq, merged[y].seq));
        }
      }
    }
  }

  // The from-scratch index's aggregation: (key, diag) order, then runs.
  out.pairs = align::promote_seed_runs(seeds, cfg.min_shared_kmers);

  std::sort(out.dirty_keys.begin(), out.dirty_keys.end());
  out.dirty_keys.erase(
      std::unique(out.dirty_keys.begin(), out.dirty_keys.end()),
      out.dirty_keys.end());
  return out;
}

IngestSession::SeedOutput IngestSession::incremental_seed_lsh(
    std::size_t first_new) const {
  const align::LshSeedConfig& cfg = config_.graph.lsh;
  const u64 width = cfg.num_bands * cfg.rows_per_band;
  SeedOutput out;

  // Sketch the batch with the session's fixed permutation set.
  const std::size_t num_new = sequences_.size() - first_new;
  out.new_signatures.resize(num_new * width);
  std::vector<u64> scratch;
  for (std::size_t i = 0; i < num_new; ++i) {
    seq::distinct_kmer_codes(sequences_[first_new + i].residues, cfg.k,
                             scratch);
    sketch_hashes_->sketch(
        scratch, std::span<u64>(out.new_signatures).subspan(i * width, width));
  }

  // New bucket entries, merged into the standing (band, key, seq) order.
  // Empty sketches (sequences shorter than k) stay out of every bucket,
  // like both from-scratch paths.
  std::vector<BandEntry> fresh;
  for (u64 band = 0; band < cfg.num_bands; ++band) {
    for (std::size_t i = 0; i < num_new; ++i) {
      const std::span<const u64> rows =
          std::span<const u64>(out.new_signatures)
              .subspan(i * width + band * cfg.rows_per_band,
                       cfg.rows_per_band);
      if (rows.front() == seq::kEmptySketchSlot) continue;
      fresh.push_back({seq::band_key(band, rows), static_cast<u32>(band),
                       static_cast<u32>(first_new + i)});
    }
  }
  const auto by_band_key_seq = [](const BandEntry& x, const BandEntry& y) {
    return std::tuple(x.band, x.key, x.seq) < std::tuple(y.band, y.key, y.seq);
  };
  std::sort(fresh.begin(), fresh.end(), by_band_key_seq);
  out.merged_entries.resize(entries_.size() + fresh.size());
  std::merge(entries_.begin(), entries_.end(), fresh.begin(), fresh.end(),
             out.merged_entries.begin(), by_band_key_seq);
  const auto& merged = out.merged_entries;

  // Walk each bucket the batch touched once. A sequence lands in exactly
  // one bucket per band, so a pair shares at most one bucket per band and
  // the per-pair hit counts need no within-band dedup. Occupancy is
  // monotone under appends: old-old pairs only ever lose buckets (to
  // masking), never gain them.
  std::vector<u64> hits;  ///< one key per (pair, colliding unmasked bucket)
  for (std::size_t flo = 0; flo < fresh.size();) {
    std::size_t fhi = flo;
    while (fhi < fresh.size() && fresh[fhi].band == fresh[flo].band &&
           fresh[fhi].key == fresh[flo].key) {
      ++fhi;
    }
    const BandEntry probe{fresh[flo].key, fresh[flo].band, 0};
    flo = fhi;

    const auto run =
        std::equal_range(merged.begin(), merged.end(), probe,
                         [](const BandEntry& x, const BandEntry& y) {
                           return std::tuple(x.band, x.key) <
                                  std::tuple(y.band, y.key);
                         });
    const std::size_t lo = static_cast<std::size_t>(run.first - merged.begin());
    const std::size_t hi =
        static_cast<std::size_t>(run.second - merged.begin());
    const std::size_t occupancy = hi - lo;
    std::size_t old_end = lo;
    while (old_end < hi && merged[old_end].seq < first_new) ++old_end;
    const std::size_t n_old = old_end - lo;

    if (occupancy >= 2 && occupancy <= cfg.max_bucket_size) {
      for (std::size_t x = lo; x < hi; ++x) {
        for (std::size_t y = std::max(x + 1, old_end); y < hi; ++y) {
          hits.push_back(pair_key(merged[x].seq, merged[y].seq));
        }
      }
    } else if (n_old >= 2 && n_old <= cfg.max_bucket_size &&
               occupancy > cfg.max_bucket_size) {
      for (std::size_t x = lo; x < old_end; ++x) {
        for (std::size_t y = x + 1; y < old_end; ++y) {
          out.dirty_keys.push_back(pair_key(merged[x].seq, merged[y].seq));
        }
      }
    }
  }

  // One (pair, band hits) entry per colliding pair, then the from-scratch
  // path's band-hit threshold and exact recount.
  std::sort(hits.begin(), hits.end());
  std::vector<u64> keys;
  std::vector<u32> band_hits;
  for (std::size_t lo = 0; lo < hits.size();) {
    std::size_t hi = lo;
    while (hi < hits.size() && hits[hi] == hits[lo]) ++hi;
    keys.push_back(hits[lo]);
    band_hits.push_back(static_cast<u32>(hi - lo));
    lo = hi;
  }
  out.pairs =
      align::recount_band_candidates(sequences_, cfg, keys, band_hits);

  std::sort(out.dirty_keys.begin(), out.dirty_keys.end());
  out.dirty_keys.erase(
      std::unique(out.dirty_keys.begin(), out.dirty_keys.end()),
      out.dirty_keys.end());
  return out;
}

bool IngestSession::still_candidate_kmer(
    u32 a, u32 b, const std::vector<align::KmerPosting>& postings) const {
  const align::KmerIndexConfig& cfg = config_.graph.seeds;
  std::vector<u64> codes_a, codes_b;
  seq::distinct_kmer_codes(sequences_[a].residues, cfg.k, codes_a);
  seq::distinct_kmer_codes(sequences_[b].residues, cfg.k, codes_b);
  std::size_t shared = 0;
  std::size_t i = 0, j = 0;
  while (i < codes_a.size() && j < codes_b.size()) {
    if (codes_a[i] < codes_b[j]) {
      ++i;
    } else if (codes_b[j] < codes_a[i]) {
      ++j;
    } else {
      // Shared code: it counts iff its post-batch occupancy is unmasked —
      // the same [2, max] window the from-scratch run applies globally.
      const u64 code = codes_a[i];
      const auto run = std::equal_range(
          postings.begin(), postings.end(), align::KmerPosting{code, 0, 0},
          [](const align::KmerPosting& x, const align::KmerPosting& y) {
            return x.code < y.code;
          });
      const std::size_t occ =
          static_cast<std::size_t>(run.second - run.first);
      if (occ >= 2 && occ <= cfg.max_kmer_occurrences) {
        if (++shared >= cfg.min_shared_kmers) return true;
      }
      ++i;
      ++j;
    }
  }
  return false;
}

bool IngestSession::still_candidate_lsh(
    u32 a, u32 b, const std::vector<u64>& signatures,
    const std::vector<BandEntry>& entries) const {
  // The exact recount (unmasked shared codes) is a pure pair function and
  // the pair already passed it when its edge was admitted, so only the
  // band-collision threshold can revoke candidacy.
  const align::LshSeedConfig& cfg = config_.graph.lsh;
  const u64 width = cfg.num_bands * cfg.rows_per_band;
  u32 band_hits = 0;
  for (u64 band = 0; band < cfg.num_bands; ++band) {
    const std::span<const u64> rows_a =
        std::span<const u64>(signatures)
            .subspan(a * width + band * cfg.rows_per_band, cfg.rows_per_band);
    const std::span<const u64> rows_b =
        std::span<const u64>(signatures)
            .subspan(b * width + band * cfg.rows_per_band, cfg.rows_per_band);
    if (rows_a.front() == seq::kEmptySketchSlot ||
        rows_b.front() == seq::kEmptySketchSlot) {
      continue;
    }
    const u64 key_a = seq::band_key(band, rows_a);
    if (key_a != seq::band_key(band, rows_b)) continue;
    const BandEntry probe{key_a, static_cast<u32>(band), 0};
    const auto run =
        std::equal_range(entries.begin(), entries.end(), probe,
                         [](const BandEntry& x, const BandEntry& y) {
                           return std::tuple(x.band, x.key) <
                                  std::tuple(y.band, y.key);
                         });
    const std::size_t occupancy =
        static_cast<std::size_t>(run.second - run.first);
    if (occupancy >= 2 && occupancy <= cfg.max_bucket_size) {
      if (++band_hits >= cfg.min_band_hits) return true;
    }
  }
  return false;
}

IngestBatchStats IngestSession::ingest(const seq::SequenceSet& batch) {
  IngestBatchStats stats = ingest_batch(batch, nullptr);
  last_store_.reset();
  return stats;
}

IngestBatchStats IngestSession::ingest_batch(const seq::SequenceSet& batch,
                                             std::vector<i32>* family_source) {
  IngestBatchStats stats;
  stats.num_new_sequences = batch.size();
  if (batch.empty()) {
    if (family_source != nullptr) {
      family_source->resize(clusters_.size());
      std::iota(family_source->begin(), family_source->end(), 0);
    }
    return stats;
  }
  const std::size_t first_new = sequences_.size();
  const std::size_t n = first_new + batch.size();
  GPCLUST_CHECK(n <= 0xffffffffull, "sequence ids overflow u32");
  const bool lsh = config_.graph.seed_mode == align::SeedMode::MinHashLsh;

  sequences_.insert(sequences_.end(), batch.begin(), batch.end());
  SequenceRollback rollback{sequences_, first_new};

  // Stage 1 (incremental): merge the batch into the standing index and
  // emit new-involving candidates + dirtied old-old pairs. All staging
  // lands in locals; members mutate only at commit.
  util::WallTimer seed_timer;
  SeedOutput seed;
  {
    obs::HostSpan span(config_.tracer, "ingest.seed");
    seed = lsh ? incremental_seed_lsh(first_new)
               : incremental_seed_kmer(first_new);
  }
  stats.seed_host_s = seed_timer.seconds();
  stats.num_candidate_pairs = seed.pairs.size();
  stats.num_dirty_pairs = seed.dirty_keys.size();
  obs::add_counter(config_.tracer, "ingest_candidate_pairs",
                   seed.pairs.size());

  // Revocation: a dirtied pair that is a standing edge keeps it iff it is
  // still a candidate of the post-batch input (its verify verdict is pure,
  // so candidacy is the only thing masking can take away).
  std::vector<graph::Edge> revoked;
  for (const u64 key : seed.dirty_keys) {
    const graph::Edge e{static_cast<u32>(key >> 32),
                        static_cast<u32>(key & 0xffffffffu)};
    if (!std::binary_search(edges_.begin(), edges_.end(), e)) continue;
    const bool keep = lsh ? still_candidate_lsh(e.u, e.v, signatures_,
                                                seed.merged_entries)
                          : still_candidate_kmer(e.u, e.v,
                                                 seed.merged_postings);
    if (!keep) revoked.push_back(e);
  }
  stats.num_revoked_edges = revoked.size();
  obs::add_counter(config_.tracer, "ingest_revoked_edges", revoked.size());

  // Stages 2 + 3: the unchanged cascade over just the new candidates.
  util::WallTimer verify_timer;
  std::vector<u8> accepted;
  {
    obs::HostSpan span(config_.tracer, "ingest.verify");
    accepted = align::verify_candidate_pairs(sequences_, seed.pairs,
                                             config_.graph, &stats.verify);
  }
  stats.verify_host_s = verify_timer.seconds();

  // Updated edge set: standing minus revoked, plus accepted. New-involving
  // edges have their larger endpoint >= first_new while standing edges do
  // not, so the two sorted runs merge without deduplication.
  std::vector<graph::Edge> added;
  for (std::size_t i = 0; i < seed.pairs.size(); ++i) {
    if (accepted[i]) added.push_back({seed.pairs[i].a, seed.pairs[i].b});
  }
  stats.num_accepted_edges = added.size();
  std::vector<graph::Edge> kept;
  kept.reserve(edges_.size() - revoked.size());
  std::set_difference(edges_.begin(), edges_.end(), revoked.begin(),
                      revoked.end(), std::back_inserter(kept));
  std::vector<graph::Edge> updated;
  updated.reserve(kept.size() + added.size());
  std::merge(kept.begin(), kept.end(), added.begin(), added.end(),
             std::back_inserter(updated));

  // Scoped re-cluster: components touched by an edge change or a new
  // vertex are re-shingled on the full vertex-id universe (shingle hashes
  // are functions of original vertex ids, so the scoped pass reproduces
  // the from-scratch clusters of those components bit-for-bit); untouched
  // standing clusters splice through. Every fragment of a changed
  // component contains an endpoint of a changed edge, so first-member
  // tests classify whole clusters soundly.
  util::WallTimer recluster_timer;
  std::vector<std::vector<VertexId>> next_clusters;
  {
    obs::HostSpan span(config_.tracer, "ingest.recluster");
    graph::UnionFind uf(n);
    for (const graph::Edge& e : updated) uf.unite(e.u, e.v);
    std::vector<u8> touched_root(n, 0);
    for (std::size_t v = first_new; v < n; ++v) touched_root[uf.find(v)] = 1;
    for (const graph::Edge& e : revoked) {
      touched_root[uf.find(e.u)] = 1;
      touched_root[uf.find(e.v)] = 1;
    }
    for (const graph::Edge& e : added) touched_root[uf.find(e.u)] = 1;

    graph::EdgeList scoped(n);
    for (const graph::Edge& e : updated) {
      if (touched_root[uf.find(e.u)]) scoped.add(e.u, e.v);
    }
    const core::Clustering reclustered =
        cluster_graph(graph::CsrGraph::from_edge_list(std::move(scoped)));

    // Each spliced cluster remembers the standing cluster it carries
    // unchanged: untouched ones by construction, touched ones only if the
    // re-shingle reproduced their exact membership (fronts are unique, so
    // one lookup by front suffices).
    std::vector<i32> source;
    for (std::size_t b = 0; b < clusters_.size(); ++b) {
      if (!touched_root[uf.find(clusters_[b].front())]) {
        next_clusters.push_back(clusters_[b]);
        source.push_back(static_cast<i32>(b));
      }
    }
    for (const auto& cluster : reclustered.clusters()) {
      if (!touched_root[uf.find(cluster.front())]) continue;
      next_clusters.push_back(cluster);
      const auto old = std::lower_bound(
          clusters_.begin(), clusters_.end(), cluster.front(),
          [](const std::vector<VertexId>& c, VertexId v) {
            return c.front() < v;
          });
      source.push_back(old != clusters_.end() && *old == cluster
                           ? static_cast<i32>(old - clusters_.begin())
                           : store::SnapshotDelta::kFreshFamily);
    }
    std::vector<std::size_t> order(next_clusters.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return next_clusters[x].front() < next_clusters[y].front();
    });
    std::vector<std::vector<VertexId>> sorted(order.size());
    if (family_source != nullptr) family_source->resize(order.size());
    for (std::size_t f = 0; f < order.size(); ++f) {
      sorted[f] = std::move(next_clusters[order[f]]);
      if (family_source != nullptr) (*family_source)[f] = source[order[f]];
    }
    next_clusters = std::move(sorted);

    stats.num_components = uf.num_sets();
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t root = uf.find(v);
      if (touched_root[root]) {
        ++stats.num_touched_vertices;
        if (root == v) ++stats.num_touched_components;
      }
    }
    stats.touched_fraction =
        static_cast<double>(stats.num_touched_vertices) /
        static_cast<double>(n);
  }
  stats.recluster_host_s = recluster_timer.seconds();
  obs::add_counter(config_.tracer, "ingest_touched_vertices",
                   stats.num_touched_vertices);

  // Safety net for the splice: the merged clusters must partition [0, n).
  std::size_t members = 0;
  for (const auto& cluster : next_clusters) members += cluster.size();
  GPCLUST_CHECK(members == n, "spliced clusters do not partition the input");

  // Commit.
  clusters_ = std::move(next_clusters);
  edges_ = std::move(updated);
  if (lsh) {
    entries_ = std::move(seed.merged_entries);
    signatures_.insert(signatures_.end(), seed.new_signatures.begin(),
                       seed.new_signatures.end());
  } else {
    postings_ = std::move(seed.merged_postings);
  }
  rollback.committed = true;
  return stats;
}

store::SnapshotDelta IngestSession::ingest_with_delta(
    const seq::SequenceSet& batch, u64 chain_index, IngestBatchStats* stats) {
  if (!last_store_) {
    last_store_ = this->store();
    last_store_crc_ = store::snapshot_crc(*last_store_);
  }
  const std::size_t first_new = sequences_.size();
  std::vector<i32> family_source;
  IngestBatchStats batch_stats = ingest_batch(batch, &family_source);

  // The batch is committed: the cached store is the pre-batch one until
  // the patch below replaces it (and is dropped if anything throws).
  const store::FamilyStore base = std::move(*last_store_);
  last_store_.reset();
  util::WallTimer delta_timer;
  store::SnapshotDelta delta;
  {
    obs::HostSpan span(config_.tracer, "ingest.delta");
    delta = splice_delta(base, first_new, std::move(family_source),
                         chain_index);
    // The session produced the base itself, so its CRC is the previous
    // link's result CRC.
    delta.base_crc = last_store_crc_;
    store::FamilyStore next = store::patch_family_store(base, delta);
    delta.result_crc = store::snapshot_crc(next);
    last_store_ = std::move(next);
    last_store_crc_ = delta.result_crc;
  }
  batch_stats.delta_host_s = delta_timer.seconds();
  if (stats != nullptr) *stats = batch_stats;
  return delta;
}

store::SnapshotDelta IngestSession::splice_delta(
    const store::FamilyStore& base, std::size_t first_new,
    std::vector<i32> family_source, u64 chain_index) const {
  const std::size_t n = sequences_.size();
  store::SnapshotDelta d;
  d.chain_index = chain_index;
  d.num_base_sequences = first_new;
  d.num_base_families = base.num_families;
  d.num_families = clusters_.size();
  d.kmer_k = base.kmer_k;
  d.sig_num_hashes = base.sig_num_hashes;
  d.sig_seed = base.sig_seed;

  // Appended sequences, delta-local offsets.
  d.seq_offsets.push_back(0);
  d.id_offsets.push_back(0);
  for (std::size_t i = first_new; i < n; ++i) {
    d.residues += sequences_[i].residues;
    d.ids += sequences_[i].id;
    d.seq_offsets.push_back(d.residues.size());
    d.id_offsets.push_back(d.ids.size());
  }

  // Pre-batch families without a post-batch image retire.
  std::vector<u8> carried(base.num_families, 0);
  for (const i32 b : family_source) {
    if (b != store::SnapshotDelta::kFreshFamily) carried[b] = 1;
  }
  for (u32 b = 0; b < base.num_families; ++b) {
    if (!carried[b]) d.retired.push_back(b);
  }

  // Fresh families hold every new sequence and every moved one (a carried
  // family's members are exactly its pre-batch members), plus their reps.
  d.new_family_of.resize(n - first_new);
  std::vector<std::pair<u32, u32>> moved;  // (sequence, family)
  std::vector<u32> reps;
  d.fresh_rep_offsets.push_back(0);
  for (std::size_t f = 0; f < clusters_.size(); ++f) {
    if (family_source[f] != store::SnapshotDelta::kFreshFamily) continue;
    for (const VertexId v : clusters_[f]) {
      if (v >= first_new) {
        d.new_family_of[v - first_new] = static_cast<u32>(f);
      } else {
        moved.emplace_back(v, static_cast<u32>(f));
      }
    }
    reps.assign(clusters_[f].begin(), clusters_[f].end());
    store::select_representatives(reps, sequences_,
                                  config_.store.reps_per_family);
    d.fresh_reps.insert(d.fresh_reps.end(), reps.begin(), reps.end());
    d.fresh_rep_offsets.push_back(d.fresh_reps.size());
  }
  std::sort(moved.begin(), moved.end());
  for (const auto& [v, f] : moved) {
    d.moved_seq.push_back(v);
    d.moved_family.push_back(f);
  }
  d.family_source = std::move(family_source);

  // Signature rows of the fresh reps: the same sketch build_rep_signatures
  // takes over a rep's distinct k-mer codes, split across the default pool
  // once there is enough hashing to amortize the dispatch.
  const store::SignatureHashes hashes(d.sig_num_hashes, d.sig_seed);
  d.signatures.resize(d.fresh_reps.size() * d.sig_num_hashes);
  std::size_t residues = 0;
  for (const u32 r : d.fresh_reps) residues += sequences_[r].length();
  constexpr std::size_t kMinHashesPerWorker = std::size_t{1} << 16;
  util::for_ranges(
      util::group_by_workers(residues * d.sig_num_hashes, kMinHashesPerWorker),
      d.fresh_reps.size(), [&](std::size_t lo, std::size_t hi) {
        std::vector<u64> codes;
        for (std::size_t i = lo; i < hi; ++i) {
          seq::distinct_kmer_codes(sequences_[d.fresh_reps[i]].residues,
                                   d.kmer_k, codes);
          hashes.sketch(codes, std::span<u64>(d.signatures)
                                   .subspan(i * d.sig_num_hashes,
                                            d.sig_num_hashes));
        }
      });
  return d;
}

}  // namespace gpclust::ingest
