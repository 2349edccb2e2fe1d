#pragma once
// Phase III of the Shingling heuristic (paper §III-B): turn the level-2
// shingle graph G_II into clusters of original vertices, in either of the
// paper's two modes.
//
// G_II's left nodes are second-level shingles whose member lists are
// indices of first-level shingles; G_I maps each first-level shingle to
// L(s) — the original vertices that generated it. A connected component of
// G_II therefore induces a vertex set: the union of L(s) over its
// first-level shingles.

#include "core/clustering.hpp"
#include "core/params.hpp"
#include "core/shingle_graph.hpp"

namespace gpclust::core {

/// Reports clusters from the two shingle graphs.
///   gi: first-level shingle graph (left = S1, members = vertex ids)
///   gii: second-level shingle graph (left = S2, members = S1 indices)
///   num_vertices: |V| of the original graph G
///
/// Partition mode: union-find of size n, all vertices start as singleton
/// clusters, each G_II component unions its induced vertex set; the result
/// is a partition of V including size-1 clusters (the paper's choice).
/// Overlapping mode: one (deduplicated) cluster per G_II component;
/// vertices that appear in no component are NOT reported.
Clustering report_dense_subgraphs(const BipartiteShingleGraph& gi,
                                  const BipartiteShingleGraph& gii,
                                  std::size_t num_vertices, ReportMode mode);

/// The same report from G_II's components, as S1ComponentBuilder builds
/// them without G_II: components of G_II and S1Components of its tuples
/// give identical clusterings in both modes.
Clustering report_dense_subgraphs(const BipartiteShingleGraph& gi,
                                  const S1Components& components,
                                  std::size_t num_vertices, ReportMode mode);

}  // namespace gpclust::core
