// k-dimensional geometric points for the network coordinate space.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "util/require.h"

namespace hfc {

/// A point in the k-dimensional coordinate space S (paper §3.1). The
/// dimension is a runtime property so experiments can sweep it. Point is
/// the API-edge form (GNP, Nelder–Mead, constructor inputs, joins);
/// resident coordinate arrays are PointSet rows (coords/point_set.h).
using Point = std::vector<double>;

/// Euclidean distance between two coordinate rows of equal dimension. The
/// one distance kernel: a Point and a PointSet row both bind to it, and
/// every exactness argument (spatial_index.h, DESIGN.md §11 and §14)
/// rests on its fixed accumulation order — per-axis difference, squared,
/// summed in axis order, rooted.
[[nodiscard]] inline double euclidean(std::span<const double> a,
                                      std::span<const double> b) {
  require(a.size() == b.size(), "euclidean: dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace hfc
