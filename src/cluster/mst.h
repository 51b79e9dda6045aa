// Minimum spanning tree over a dense distance function.
//
// The Zahn clustering (paper §3.2) works on the Euclidean MST of the proxy
// coordinates. Three tiers build it (DESIGN.md §11):
//
//   * Prim over a distance callback — O(n^2) evaluations, no structure
//     assumed beyond symmetry. The only option for non-geometric
//     distances, and the fastest below a few hundred points, where a
//     spatial index costs more to build than it saves.
//   * Prim over a DistanceService — the same scan restructured to fetch
//     each added node's whole row once (n row fetches total), so the
//     truth tier's bounded row cache is read sequentially instead of
//     thrashed.
//   * Borůvka over a k-d tree (`euclidean_mst_spatial`) — each round
//     tags the index with the current components and finds, per
//     component, its cheapest outgoing edge; components shrink
//     geometrically, so the whole build is O(n log n) nearest-neighbour
//     work. This is what `euclidean_mst` and the coordinate-tier
//     `mst_dense` dispatch to once `spatial_enabled(n)` holds (default:
//     n >= 256), and it is the tier that carries Zahn clustering to the
//     1M-proxy scale (bench_topology_scaling).
//
// The Borůvka sweep groups points by component and scans each component
// sequentially, passing the component's best candidate distance so far
// as the (inclusive) query bound (DESIGN.md §13). The bound shrinks as
// candidates improve, so most member queries cut off after a few node
// visits; components scan in parallel, writing disjoint candidate slots.
// The inclusive-bound contract (spatial_index.h) returns candidates at
// exactly the bound, so every hit that could win the per-component
// (d, a, b) minimisation is still seen: the tree is the unique MST under
// that total order, which the all-pairs Kruskal oracle in
// tests/oracle/mst.h reproduces bit for bit, exact ties included.
//
// Equivalence across tiers: all evaluate the same `euclidean()` doubles,
// and with distinct pairwise distances the MST is unique, so Prim and
// Borůvka return the same edge set (Borůvka in canonical (a, b) order,
// Prim in insertion order — Zahn consumes the set, not the order). Inputs
// with exact distance ties can have several valid MSTs; the
// HFC_SPATIAL_MIN_N floor keeps small hand-laid-out point sets (where
// such ties are deliberate) on the Prim path whose tie behaviour existing
// expectations encode.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "coords/point.h"
#include "distance/distance_service.h"
#include "spatial/spatial_index.h"

namespace hfc {

/// An undirected MST edge between node indices.
struct MstEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  double length = 0.0;
};

/// Distance callback over node indices; must be symmetric and non-negative.
using DistanceFn = std::function<double(std::size_t, std::size_t)>;

/// Prim MST over the complete graph on n nodes. Returns n-1 edges
/// (empty for n <= 1).
[[nodiscard]] std::vector<MstEdge> mst_dense(std::size_t n,
                                             const DistanceFn& distance);

/// MST over all nodes of a distance service. Coordinate-tier services
/// dispatch like `euclidean_mst`; other tiers
/// run a row-grouped Prim that fetches `row(next)` once per added node —
/// sequential reads the truth tier's row cache retains, instead of the
/// per-pair `at()` canonicalization that thrashes it. Row-tier values are
/// the source's own row view (symmetric tiers are bit-identical to the
/// callback form; see the orientation contract in distance_service.h).
[[nodiscard]] std::vector<MstEdge> mst_dense(const DistanceService& distance);

/// MST of points under Euclidean distance. Dispatches between Prim and
/// the Borůvka path via `spatial_enabled(points.size())`, and on to the
/// group-local pipeline via `group_pipeline_enabled`.
[[nodiscard]] std::vector<MstEdge> euclidean_mst(
    const std::vector<Point>& points);

/// The Borůvka-over-k-d-tree path, exposed directly so equivalence
/// tests and benches can pin it regardless of the HFC_SPATIAL_MIN_N
/// floor. Edges come back canonical: a < b, sorted ascending by (a, b).
[[nodiscard]] std::vector<MstEdge> euclidean_mst_spatial(
    const std::vector<Point>& points);

/// The group-local pipeline gate: n >= HFC_ML_PAR_MIN_N (default 8192 —
/// below that the single global sweep is already cheap). Selects both
/// the pipeline's MST (`euclidean_mst_grouped`) and its block-parallel
/// Zahn cut (DESIGN.md §14).
[[nodiscard]] bool group_pipeline_enabled(std::size_t n);

/// Partition-cell size cap for the pipeline's local phase
/// (HFC_ML_PAR_GROUP, default 4096).
[[nodiscard]] std::size_t group_pipeline_group_limit();

/// The group-local Borůvka pipeline: median partition with cell bounds,
/// margin-safe per-cell contraction over DynamicSpatialSet-backed local
/// indexes (cells run via parallel_for into disjoint slots), then a
/// lower-bound-pruned global finish sweep. Bit-identical to
/// `euclidean_mst_spatial` for any HFC_THREADS — see the cut-property and
/// floating-point-margin argument in DESIGN.md §14. `group_limit` 0 reads
/// HFC_ML_PAR_GROUP.
[[nodiscard]] std::vector<MstEdge> euclidean_mst_grouped(
    const std::vector<Point>& points, std::size_t group_limit = 0);

/// Total length of an edge set.
[[nodiscard]] double total_length(const std::vector<MstEdge>& edges);

}  // namespace hfc
