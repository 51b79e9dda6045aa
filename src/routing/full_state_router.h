// "HFC without state aggregation" — the paper's second §6.2 baseline as a
// first-class router.
//
// The proxy keeps full global state (coordinates and per-proxy SCT of
// every node) but traffic is still constrained to the HFC topology:
// inter-cluster hops go through border pairs. With full knowledge the
// optimal constrained path is computable flat in one step; comparing it
// against the aggregated hierarchical router isolates the cost of
// topology abstraction and state aggregation (Figure 10, last two bars).
#pragma once

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/flat_router.h"
#include "routing/service_path.h"

namespace hfc {

class FullStateHfcRouter {
 public:
  /// References must outlive the router; `estimate` is the coordinate
  /// distance every proxy knows.
  FullStateHfcRouter(const OverlayNetwork& net, const HfcTopology& topo,
                     OverlayDistance estimate);

  /// Optimal service path under HFC-constrained distances, with border
  /// relay hops expanded (ready for hop-by-hop measurement).
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const;

 private:
  const HfcTopology& topo_;
  OverlayDistance hfc_distance_;
  FlatServiceRouter flat_;
};

}  // namespace hfc
