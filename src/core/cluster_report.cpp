#include "core/cluster_report.hpp"

#include <algorithm>
#include <limits>

#include "graph/union_find.hpp"

namespace gpclust::core {

namespace {

/// Groups first-level shingle indices by G_II connectivity: two S1 nodes
/// are connected iff they co-occur in some second-level shingle's list.
S1Components s1_components(const BipartiteShingleGraph& gii,
                           std::size_t num_s1) {
  graph::UnionFind uf(num_s1);
  for (std::size_t t = 0; t < gii.num_left(); ++t) {
    const auto list = gii.list(t);
    for (std::size_t i = 1; i < list.size(); ++i) {
      uf.unite(list[0], list[i]);
    }
  }
  // Only S1 nodes that appear in G_II belong to a component.
  std::vector<u8> present(num_s1, 0);
  for (u32 f : gii.members) present[f] = 1;
  S1Components comps;
  comps.of.assign(num_s1, S1Components::kNone);
  std::vector<u32> comp_of_root(num_s1, S1Components::kNone);
  for (std::size_t f = 0; f < num_s1; ++f) {
    if (!present[f]) continue;
    u32& comp = comp_of_root[uf.find(f)];
    if (comp == S1Components::kNone) comp = static_cast<u32>(comps.count++);
    comps.of[f] = comp;
  }
  return comps;
}

}  // namespace

Clustering report_dense_subgraphs(const BipartiteShingleGraph& gi,
                                  const BipartiteShingleGraph& gii,
                                  std::size_t num_vertices, ReportMode mode) {
  for (u32 f : gii.members) {
    GPCLUST_CHECK(f < gi.num_left(), "G_II references unknown S1 shingle");
  }
  return report_dense_subgraphs(gi, s1_components(gii, gi.num_left()),
                                num_vertices, mode);
}

Clustering report_dense_subgraphs(const BipartiteShingleGraph& gi,
                                  const S1Components& components,
                                  std::size_t num_vertices, ReportMode mode) {
  GPCLUST_CHECK(components.of.size() == gi.num_left(),
                "components cover a different S1 node count");
  if (mode == ReportMode::Overlapping) {
    std::vector<std::vector<VertexId>> clusters(components.count);
    for (std::size_t f = 0; f < gi.num_left(); ++f) {
      if (components.of[f] == S1Components::kNone) continue;
      const auto l = gi.list(f);
      auto& cluster = clusters[components.of[f]];
      cluster.insert(cluster.end(), l.begin(), l.end());
    }
    for (auto& cluster : clusters) {
      std::sort(cluster.begin(), cluster.end());
      cluster.erase(std::unique(cluster.begin(), cluster.end()),
                    cluster.end());
    }
    return Clustering(std::move(clusters), num_vertices);
  }

  // Partition mode: union the induced vertex set of every component into
  // the component's first vertex.
  graph::UnionFind uf(num_vertices);
  constexpr VertexId kNoAnchor = std::numeric_limits<VertexId>::max();
  std::vector<VertexId> anchor(components.count, kNoAnchor);
  for (std::size_t f = 0; f < gi.num_left(); ++f) {
    if (components.of[f] == S1Components::kNone) continue;
    VertexId& a = anchor[components.of[f]];
    for (u32 v : gi.list(f)) {
      if (a == kNoAnchor) {
        a = v;
      } else {
        uf.unite(a, v);
      }
    }
  }
  const auto labels = uf.component_labels();
  std::vector<std::vector<VertexId>> clusters(uf.num_sets());
  for (std::size_t v = 0; v < num_vertices; ++v) {
    clusters[labels[v]].push_back(static_cast<VertexId>(v));
  }
  return Clustering(std::move(clusters), num_vertices);
}

}  // namespace gpclust::core
