#include "distance/coord_distance.h"

#include <utility>

#include "util/require.h"

namespace hfc {

CoordDistanceService::CoordDistanceService(PointSet coords)
    : coords_(std::move(coords)) {
  require(!coords_.empty(), "CoordDistanceService: no coordinates");
  require(coords_.dim() >= 1,
          "CoordDistanceService: zero-dimensional coordinates");
}

double CoordDistanceService::at(std::size_t a, std::size_t b) const {
  require(a < coords_.size() && b < coords_.size(),
          "CoordDistanceService::at: index out of range");
  return euclidean(coords_[a], coords_[b]);
}

void CoordDistanceService::append(const Point& p) {
  require(p.size() == coords_.dim(),
          "CoordDistanceService::append: dimension mismatch");
  coords_.push_back(p);
}

}  // namespace hfc
