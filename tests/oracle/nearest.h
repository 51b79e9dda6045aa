// Brute-force nearest-neighbour oracles: ascending scans over a list of
// point ids, with the tie behaviour every spatial consumer encodes —
// equal distances resolve to the smallest id, exactly what a strict-`<`
// ascending scan keeps.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "coords/point_set.h"
#include "spatial/spatial_index.h"

namespace hfc::oracle {

/// Nearest id to `q` within `bound` (inclusive) among those `accept`
/// admits; not found when none qualifies.
inline SpatialHit brute_nearest(
    const PointSet& pts, const std::vector<std::int32_t>& ids,
    std::span<const double> q,
    double bound = std::numeric_limits<double>::infinity(),
    SpatialFilter accept = nullptr, const void* ctx = nullptr) {
  SpatialHit best;
  best.dist = bound;
  best.id = std::numeric_limits<std::int32_t>::max();
  for (const std::int32_t id : ids) {
    if (accept != nullptr && !accept(id, ctx)) continue;
    const double d = euclidean(q, pts[static_cast<std::size_t>(id)]);
    if (d < best.dist || (d == best.dist && id < best.id)) {
      best.dist = d;
      best.id = id;
    }
  }
  if (best.id == std::numeric_limits<std::int32_t>::max()) return SpatialHit{};
  return best;
}

}  // namespace hfc::oracle
