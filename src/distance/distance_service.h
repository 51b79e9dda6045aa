// The tiered distance abstraction (DESIGN.md §8).
//
// The paper's scaling argument (§3.1) is that coordinates replace O(n^2)
// direct measurement with O(m^2 + nm) probes and O(kn) state — yet a
// reproduction that *materializes* dense distance matrices gives that
// saving right back in memory. `DistanceService` is the single seam every
// consumer (clustering, border selection, mesh routing, the routers, the
// state protocol, the framework pipeline) queries instead of a prebuilt
// `SymMatrix`:
//
//   truth       — shortest-path delay through the underlay, memoized as
//                 per-source Dijkstra rows in a bounded sharded LRU
//                 (TruthDistanceService);
//   coordinate  — geometric distance between embedded coordinates,
//                 O(kn) resident state, rows derived on demand
//                 (CoordDistanceService).
//
// Query orientation contract: `at(a, b)` is symmetric in value, and for
// row-backed tiers it always reads row(max(a, b))[min(a, b)]. That makes
// truth-tier results bit-equal to the legacy `pairwise_delays` matrix
// (whose packed lower triangle is written by the higher-indexed source),
// so refactored consumers produce unchanged outputs.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "coords/point_set.h"
#include "util/ids.h"

namespace hfc {

class DistanceService {
 public:
  virtual ~DistanceService() = default;

  /// Number of nodes the service answers for; queries are indices in
  /// [0, size()).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Distance between nodes a and b. Symmetric; zero on the diagonal.
  [[nodiscard]] virtual double at(std::size_t a, std::size_t b) const = 0;

  [[nodiscard]] double operator()(std::size_t a, std::size_t b) const {
    return at(a, b);
  }
  [[nodiscard]] double operator()(NodeId a, NodeId b) const {
    return at(a.idx(), b.idx());
  }

  /// All distances from `source`: row[j] = at(source, j) up to the
  /// orientation contract (the row is the source's own view; `at`
  /// canonicalizes to the higher-indexed source). Shared so eviction
  /// never invalidates a row the caller still holds.
  [[nodiscard]] virtual std::shared_ptr<const std::vector<double>> row(
      std::size_t source) const = 0;

  /// The service as an `OverlayDistance`-shaped closure for the function
  /// seams the routers use. Captures `this`: the service must outlive the
  /// returned function.
  [[nodiscard]] std::function<double(NodeId, NodeId)> fn() const;

  /// Bytes of distance state currently resident (cached rows, stored
  /// coordinates). The quantity the bench memory-ceiling assertion bounds.
  [[nodiscard]] virtual std::size_t resident_bytes() const = 0;

  /// The embedded coordinate store behind this service, when its
  /// distances *are* `euclidean()` over those rows (the coordinate
  /// tier). Null for tiers whose distances are not geometric — spatial
  /// index consumers must then stay on their brute paths, since index
  /// pruning is only sound for the metric the boxes bound.
  [[nodiscard]] virtual const PointSet* coord_view() const {
    return nullptr;
  }
};

/// Resolve the row-cache capacity for a service: `requested` when
/// positive, otherwise the consumer's own `fallback`.
[[nodiscard]] std::size_t resolve_cache_rows(std::size_t requested,
                                             std::size_t fallback);

}  // namespace hfc
