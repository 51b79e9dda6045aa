// Spatial indexing over GNP coordinates (DESIGN.md §11).
//
// Every structural phase of the pipeline — the Euclidean MST behind Zahn
// clustering (§3.2), closest-pair border selection (§3.3), and mesh
// neighbor choice — is a nearest-pair problem over the embedded
// coordinates. Scanning all O(n^2) candidate pairs was the scale wall
// past ~5k proxies; once nodes carry coordinates, all of these queries
// become near-logarithmic with the bucketed k-d tree in kd_tree.h.
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
// Policy knob:
//   HFC_SPATIAL_MIN_N = smallest point count that uses the index
//                       (default 256 — below it the brute scan is both
//                       exact and faster than building a tree; also keeps
//                       hand-laid-out unit-test point sets, which may
//                       contain exact distance ties, on the scan whose
//                       tie behaviour their expectations encode). Setting
//                       it above n forces the brute scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "coords/point.h"

namespace hfc {

/// Resolve HFC_SPATIAL_MIN_N (default 256, minimum 2; re-read on each
/// call — consumers resolve it once per construction, never per query).
[[nodiscard]] std::size_t spatial_min_n();

/// True when an operation over `n` points should use the index:
/// n >= spatial_min_n().
[[nodiscard]] bool spatial_enabled(std::size_t n);

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

/// Candidate acceptance predicate over point ids (nullptr = accept all).
/// Must be pure for the duration of the query.
using SpatialFilter = bool (*)(std::int32_t, const void*);

}  // namespace hfc
