// Brute-force nearest-neighbour oracles: ascending scans over a list of
// point ids, with the tie behaviour every spatial consumer encodes —
// equal distances resolve to the smallest id, exactly what a strict-`<`
// ascending scan keeps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "coords/point.h"
#include "spatial/spatial_index.h"

namespace hfc::oracle {

/// Nearest id to `q` within `bound` (inclusive) among those `accept`
/// admits; not found when none qualifies.
inline SpatialHit brute_nearest(
    const std::vector<Point>& pts, const std::vector<std::int32_t>& ids,
    const Point& q, double bound = std::numeric_limits<double>::infinity(),
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

/// The k ids minimising (distance, id), ascending.
inline std::vector<SpatialHit> brute_k_nearest(
    const std::vector<Point>& pts, const std::vector<std::int32_t>& ids,
    const Point& q, std::size_t k) {
  std::vector<SpatialHit> all;
  for (const std::int32_t id : ids) {
    all.push_back({id, euclidean(q, pts[static_cast<std::size_t>(id)])});
  }
  std::sort(all.begin(), all.end(),
            [](const SpatialHit& a, const SpatialHit& b) {
              return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

/// Every id within `radius` of `q` (inclusive), ascending.
inline std::vector<std::int32_t> brute_range(
    const std::vector<Point>& pts, const std::vector<std::int32_t>& ids,
    const Point& q, double radius) {
  std::vector<std::int32_t> out;
  for (const std::int32_t id : ids) {
    if (euclidean(q, pts[static_cast<std::size_t>(id)]) <= radius) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hfc::oracle
