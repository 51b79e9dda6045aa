// Minimum spanning tree over a dense distance function.
//
// The Zahn clustering (paper §3.2) works on the Euclidean MST of the proxy
// coordinates. Two tiers build it (DESIGN.md §11):
//
//   * Prim over a DistanceService without coordinates (truth and probe
//     tiers) — O(n^2) evaluations, no structure assumed beyond symmetry,
//     restructured to fetch each added node's whole row once (n row
//     fetches total), so the truth tier's bounded row cache is read
//     sequentially instead of thrashed.
//   * Borůvka over a k-d tree (`euclidean_mst_spatial`) — each round
//     tags the index with the current components and finds, per
//     component, its cheapest outgoing edge; components shrink
//     geometrically, so the whole build is O(n log n) nearest-neighbour
//     work. `euclidean_mst` and `mst_dense` over a coordinate-tier
//     service always take it, and it is the tier that carries Zahn
//     clustering to the 1M-proxy scale (bench_topology_scaling).
//
// The Borůvka sweep (boruvka::global_sweep, cluster/boruvka.h) groups
// points by component and scans each component sequentially, passing
// the component's best candidate distance so far as the (inclusive)
// query bound (DESIGN.md §13). The bound shrinks as
// candidates improve, so most member queries cut off after a few node
// visits; components scan in parallel, writing disjoint candidate slots.
// The inclusive-bound contract (spatial_index.h) returns candidates at
// exactly the bound, so every hit that could win the per-component
// (d, a, b) minimisation is still seen: the tree is the unique MST under
// that total order, which the all-pairs Kruskal oracle in
// tests/oracle/mst.h reproduces bit for bit, exact ties included.
//
// Equivalence across tiers: both evaluate the same `euclidean()` doubles
// over coordinates, and with distinct pairwise distances the MST is
// unique, so Prim and Borůvka return the same edge set (Borůvka in
// canonical (a, b) order, Prim in insertion order — Zahn consumes the
// set, not the order).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "coords/point_set.h"
#include "distance/distance_service.h"

namespace hfc {

/// An undirected MST edge between node indices.
struct MstEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  double length = 0.0;
};

/// Distance callback over node indices; must be symmetric and non-negative.
using DistanceFn = std::function<double(std::size_t, std::size_t)>;

/// MST over all nodes of a distance service. Services with a coordinate
/// view go to `euclidean_mst`; other tiers run a row-grouped Prim that
/// fetches `row(next)` once per added node — sequential reads the truth
/// tier's row cache retains, instead of the per-pair `at()`
/// canonicalization that thrashes it. Row-tier values are the source's
/// own row view (see the orientation contract in distance_service.h).
[[nodiscard]] std::vector<MstEdge> mst_dense(const DistanceService& distance);

/// MST of points under Euclidean distance: the Borůvka path, or the
/// group-local pipeline once `group_pipeline_enabled` holds.
[[nodiscard]] std::vector<MstEdge> euclidean_mst(const PointSet& points);

/// The single global Borůvka-over-k-d-tree sweep, exposed directly so
/// equivalence tests and benches can pin it regardless of the group
/// pipeline gate. Edges come back canonical: a < b, sorted ascending by
/// (a, b).
[[nodiscard]] std::vector<MstEdge> euclidean_mst_spatial(
    const PointSet& points);

/// Point count from which `euclidean_mst` takes the group-local pipeline;
/// below it the single global sweep is already cheap (DESIGN.md §14).
inline constexpr std::size_t kGroupPipelineMinPoints = 8192;

/// Default partition-cell size cap of the pipeline's local phase.
inline constexpr std::size_t kGroupPipelineCellPoints = 4096;

/// The group-local pipeline gate: n >= kGroupPipelineMinPoints. Selects
/// the pipeline's MST (`euclidean_mst_grouped`) over the global sweep.
[[nodiscard]] bool group_pipeline_enabled(std::size_t n);

/// The group-local Borůvka pipeline: median partition into cells of at
/// most `group_limit` (>= 1) points with their boxes, margin-safe
/// per-cell contraction over DynamicSpatialSet-backed local indexes
/// (cells run via parallel_for into disjoint slots), then a
/// lower-bound-pruned global finish sweep. Bit-identical to
/// `euclidean_mst_spatial` at any pool size and any `group_limit` — see
/// the cut-property and floating-point-margin argument in DESIGN.md §14.
[[nodiscard]] std::vector<MstEdge> euclidean_mst_grouped(
    const PointSet& points,
    std::size_t group_limit = kGroupPipelineCellPoints);

/// Total length of an edge set.
[[nodiscard]] double total_length(const std::vector<MstEdge>& edges);

}  // namespace hfc
