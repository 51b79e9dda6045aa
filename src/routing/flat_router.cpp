#include "routing/flat_router.h"

#include <algorithm>
#include <utility>

#include "util/require.h"

namespace hfc {

FlatServiceRouter::FlatServiceRouter(const OverlayNetwork& net,
                                     OverlayDistance decision_distance)
    : net_(net), distance_(std::move(decision_distance)) {
  require(static_cast<bool>(distance_), "FlatServiceRouter: null distance");
}

ServicePath FlatServiceRouter::route(const ServiceRequest& request) const {
  return route_within(request, net_.all_nodes());
}

ServicePath FlatServiceRouter::route_within(
    const ServiceRequest& request, const std::vector<NodeId>& allowed,
    const NodeServiceFilter& filter) const {
  require(request.source.valid() && request.source.idx() < net_.size(),
          "FlatServiceRouter: bad source");
  require(request.destination.valid() &&
              request.destination.idx() < net_.size(),
          "FlatServiceRouter: bad destination");
  // Mapping phase: candidates per SG vertex = allowed proxies hosting the
  // vertex's service.
  std::vector<std::vector<int>> candidates(request.graph.size());
  for (std::size_t v = 0; v < request.graph.size(); ++v) {
    const ServiceId s = request.graph.label(v);
    for (NodeId p : allowed) {
      if (net_.hosts(p, s) && (!filter || filter(p, s))) {
        candidates[v].push_back(p.value());
      }
    }
  }
  return solve_candidates(request, candidates, [this](int a, int b) {
    if (a == b) return 0.0;
    return distance_(NodeId(a), NodeId(b));
  });
}

}  // namespace hfc
