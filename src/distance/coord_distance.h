// Coordinate tier: geometric distance between embedded coordinates — the
// O(kn)-state estimate the paper's proxies actually operate on (§3.1).
//
// Point queries are O(k) arithmetic over the stored coordinates; rows are
// derived on demand and not cached (recomputing a row costs the same as
// copying it). Values are bit-equal to `OverlayNetwork::coord_distance`
// over the same coordinates: both call the one inline `euclidean`.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "coords/point_set.h"
#include "distance/distance_service.h"

namespace hfc {

class CoordDistanceService final : public DistanceService {
 public:
  /// Takes its own copy of the coordinates (O(kn) — the tier's whole
  /// point), so it has no lifetime ties to the producer.
  explicit CoordDistanceService(PointSet coords);

  [[nodiscard]] std::size_t size() const override { return coords_.size(); }
  [[nodiscard]] double at(std::size_t a, std::size_t b) const override;
  [[nodiscard]] std::shared_ptr<const std::vector<double>> row(
      std::size_t source) const override;
  [[nodiscard]] std::size_t resident_bytes() const override;
  [[nodiscard]] const PointSet* coord_view() const override {
    return &coords_;
  }

  [[nodiscard]] const PointSet& coords() const { return coords_; }

  /// Grow the tier by one coordinate (dynamic membership, DESIGN.md §9).
  /// Not safe concurrently with queries.
  void append(const Point& p);

 private:
  PointSet coords_;
};

}  // namespace hfc
