#include "distance/coord_distance.h"

#include <utility>

#include "obs/metrics.h"
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

std::shared_ptr<const std::vector<double>> CoordDistanceService::row(
    std::size_t source) const {
  require(source < coords_.size(), "CoordDistanceService::row: bad source");
  static obs::Counter& rows =
      obs::MetricsRegistry::global().counter("distance.coord_row_computes");
  rows.add(1);
  auto out = std::make_shared<std::vector<double>>(coords_.size(), 0.0);
  const std::span<const double> from = coords_[source];
  for (std::size_t j = 0; j < coords_.size(); ++j) {
    (*out)[j] = euclidean(from, coords_[j]);
  }
  return out;
}

void CoordDistanceService::append(const Point& p) {
  require(p.size() == coords_.dim(),
          "CoordDistanceService::append: dimension mismatch");
  coords_.push_back(p);
}

std::size_t CoordDistanceService::resident_bytes() const {
  // The coordinates themselves are the tier's entire resident state.
  return coords_.resident_bytes();
}

}  // namespace hfc
