#include "distance/distance_service.h"

namespace hfc {

std::function<double(NodeId, NodeId)> DistanceService::fn() const {
  return [this](NodeId a, NodeId b) { return at(a.idx(), b.idx()); };
}

std::size_t resolve_cache_rows(std::size_t requested, std::size_t fallback) {
  return requested > 0 ? requested : fallback;
}

}  // namespace hfc
