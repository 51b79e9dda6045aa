// Coordinate tier: geometric distance between embedded coordinates — the
// O(kn)-state estimate the paper's proxies actually operate on (§3.1),
// and the tier every construction stage and router decides with
// (DESIGN.md §8).
//
// Point queries are O(k) arithmetic over the stored coordinates. Values
// are bit-equal to `OverlayNetwork::coord_distance` over the same
// coordinates: both call the one inline `euclidean`. Consumers that
// index the geometry (clustering's MST, HfcTopology's border sets) read
// `coords()` directly.
#pragma once

#include <cstddef>
#include <functional>

#include "coords/point_set.h"
#include "util/ids.h"

namespace hfc {

class CoordDistanceService {
 public:
  /// Takes its own copy of the coordinates (O(kn) — the tier's whole
  /// point), so it has no lifetime ties to the producer.
  explicit CoordDistanceService(PointSet coords);

  /// Number of nodes; queries are indices in [0, size()).
  [[nodiscard]] std::size_t size() const { return coords_.size(); }

  /// euclidean() between the coordinates of a and b.
  [[nodiscard]] double at(std::size_t a, std::size_t b) const;
  [[nodiscard]] double operator()(NodeId a, NodeId b) const {
    return at(a.idx(), b.idx());
  }

  /// The tier as an `OverlayDistance`-shaped closure for the function
  /// seams the routers use. Captures `this`: the service must outlive the
  /// returned function.
  [[nodiscard]] std::function<double(NodeId, NodeId)> fn() const {
    return [this](NodeId a, NodeId b) { return at(a.idx(), b.idx()); };
  }

  /// Bytes of distance state resident: the coordinates themselves.
  [[nodiscard]] std::size_t resident_bytes() const {
    return coords_.resident_bytes();
  }

  [[nodiscard]] const PointSet& coords() const { return coords_; }

  /// Grow the tier by one coordinate (dynamic membership, DESIGN.md §9).
  /// Not safe concurrently with queries.
  void append(const Point& p);

 private:
  PointSet coords_;
};

}  // namespace hfc
