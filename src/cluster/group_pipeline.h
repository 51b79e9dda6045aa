// Group-local construction pipeline (DESIGN.md §14).
//
// The bounded-fanout hierarchy is partition-local by design: leaf
// clusters come from spatially coherent median-partition cells. The
// pipeline exploits that locality for the construction sweep itself —
// each cell contracts its own Borůvka forest over a small,
// DynamicSpatialSet-backed local index, and only the residual inter-cell
// merging runs against the global index, pruned by per-point lower
// bounds the local phase seeds. The result is bit-identical to the
// single global sweep for any HFC_THREADS (the selection gate and the
// MST dispatch itself live in cluster/mst.h: group_pipeline_enabled,
// euclidean_mst_grouped).
//
// This header adds the group-scoped entry points the churn seam needs:
// MST and Zahn clustering over the live ids of a DynamicSpatialSet, so
// multilevel maintenance can repair one group's clustering without
// touching the rest of the overlay. Both are exact at any mutation-
// buffer state — live ids are materialised and solved over a compacted
// copy, so tombstone-heavy sets answer identically to a freshly loaded
// one.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/zahn.h"
#include "spatial/dynamic_set.h"

namespace hfc {

/// Euclidean MST over the live ids of `set`, returned in global node
/// ids (canonical: a < b, sorted ascending by (a, b)). The live subset
/// is remapped order-preservingly, so the tree equals the MST of the
/// same points presented alone. Empty for fewer than two live ids.
[[nodiscard]] std::vector<MstEdge> euclidean_mst_of_set(
    const DynamicSpatialSet& set, const std::vector<Point>& coords);

/// Zahn clustering of the live ids of `set`. The returned assignment is
/// sized coords.size(); nodes outside the set get an invalid ClusterId.
/// Cluster ids are dense in first-seen ascending-member order, exactly
/// as `cluster_points` labels the same subset presented alone.
[[nodiscard]] Clustering cluster_set(const DynamicSpatialSet& set,
                                     const std::vector<Point>& coords,
                                     const ZahnParams& params = {});

}  // namespace hfc
