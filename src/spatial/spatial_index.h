// Spatial indexing over GNP coordinates (DESIGN.md §11).
//
// The structural phases of the pipeline — the Euclidean MST behind Zahn
// clustering (§3.2) and closest-pair border selection (§3.3) — are
// nearest-pair problems over the embedded coordinates. Scanning all
// O(n^2) candidate pairs was the scale wall past ~5k proxies; once nodes
// carry coordinates, these queries become near-logarithmic with the
// bucketed k-d tree in kd_tree.h. (The §6.2 mesh baseline is built by
// its distance scan alone.)
//
// Exactness contract: every query answers with the *same doubles and the
// same argmin* as the brute-force scan it replaces. Distances between
// candidate points are computed by the one inline `euclidean()` the brute
// paths call, pruning bounds are computed so that (in IEEE round-to-
// nearest, matching accumulation order) no candidate that could win is
// ever skipped, and ties in distance resolve to the smallest node id —
// exactly what an ascending strict-`<` scan keeps. Consumers therefore
// produce bit-identical MSTs, clusterings, and border pairs whether they
// take the index or the scan; the brute-force oracles in tests/oracle/
// pin that.
//
// Selection rule: a consumer takes the index whenever it holds
// coordinates (the coordinate tier, or a PointSet passed directly) and no
// accept predicate filters members. It scans only for input the index
// cannot serve: OverlayDistance functors and predicate-filtered queries. There is no size floor; DynamicSpatialSet
// keeps its own exact scan below 32 points.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "coords/point.h"

namespace hfc {

/// One query answer: the winning point id and its exact euclidean()
/// distance. Ties in distance resolve to the smallest id.
struct SpatialHit {
  std::int32_t id = -1;
  double dist = std::numeric_limits<double>::infinity();
  [[nodiscard]] bool found() const { return id >= 0; }
};

/// Per-query traversal accounting, accumulated by the caller into the
/// obs registry (spatial.nodes_visited, and candidate-pair counters such
/// as topology.candidate_links). Kept caller-side so parallel sweeps add
/// exact per-task totals.
struct QueryStats {
  std::uint64_t nodes_visited = 0;  ///< tree nodes examined
  std::uint64_t point_evals = 0;    ///< candidate distance evaluations

  QueryStats& operator+=(const QueryStats& o) {
    nodes_visited += o.nodes_visited;
    point_evals += o.point_evals;
    return *this;
  }
};

/// Distance from `q` to the axis-aligned box [lo, hi] (0 inside), with
/// the same accumulation as euclidean(): per-axis excess in axis order,
/// squared, summed, rooted — so it never exceeds the computed distance of
/// any point inside the box. An empty box (lo = +inf, hi = -inf) is
/// infinitely far.
[[nodiscard]] inline double box_distance(const double* lo, const double* hi,
                                         std::span<const double> q) {
  double sum = 0.0;
  for (std::size_t d = 0; d < q.size(); ++d) {
    double excess = 0.0;
    if (q[d] < lo[d]) {
      excess = lo[d] - q[d];
    } else if (q[d] > hi[d]) {
      excess = q[d] - hi[d];
    }
    sum += excess * excess;
  }
  return std::sqrt(sum);
}

/// Widen the box [lo, hi] to cover `p`. An empty box starts at lo = +inf,
/// hi = -inf on every axis.
inline void widen_box(double* lo, double* hi, std::span<const double> p) {
  for (std::size_t d = 0; d < p.size(); ++d) {
    if (p[d] < lo[d]) lo[d] = p[d];
    if (p[d] > hi[d]) hi[d] = p[d];
  }
}

/// Candidate acceptance predicate over point ids (nullptr = accept all).
/// Must be pure for the duration of the query.
using SpatialFilter = bool (*)(std::int32_t, const void*);

}  // namespace hfc
