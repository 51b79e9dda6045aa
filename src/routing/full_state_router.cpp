#include "routing/full_state_router.h"

#include <utility>

#include "routing/path_expansion.h"
#include "util/require.h"

namespace hfc {

namespace {

OverlayDistance constrain(const HfcTopology& topo, OverlayDistance estimate) {
  require(static_cast<bool>(estimate), "FullStateHfcRouter: null distance");
  return [&topo, estimate = std::move(estimate)](NodeId a, NodeId b) {
    return topo.path_distance(a, b, estimate);
  };
}

}  // namespace

FullStateHfcRouter::FullStateHfcRouter(const OverlayNetwork& net,
                                       const HfcTopology& topo,
                                       OverlayDistance estimate)
    : topo_(topo),
      hfc_distance_(constrain(topo, std::move(estimate))),
      flat_(net, hfc_distance_) {}

ServicePath FullStateHfcRouter::route(const ServiceRequest& request) const {
  return expand_hfc_path(flat_.route(request), topo_);
}

}  // namespace hfc
