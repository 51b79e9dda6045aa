// Flat (single-level) service routing — the global-view algorithm of [11]
// used (a) as the paper's mesh baseline, (b) as "HFC without aggregation",
// and (c) for intra-cluster child requests inside the hierarchical router.
//
// The router sees one distance function (what the node believes about the
// overlay) and one candidate universe (which proxies it may map services
// onto). It is a pure function of converged routing state, as in the
// paper: state distribution runs separately (src/sim).
#pragma once

#include <vector>

#include "overlay/overlay_network.h"
#include "routing/service_dag.h"
#include "routing/service_path.h"
#include "services/service_graph.h"

namespace hfc {

class FlatServiceRouter {
 public:
  /// Route over a fully-connected view of the overlay under
  /// `decision_distance` (typically coordinate estimates). The network
  /// reference must outlive the router.
  FlatServiceRouter(const OverlayNetwork& net,
                    OverlayDistance decision_distance);

  /// Find the optimal service path under the decision metric, mapping
  /// services onto any hosting proxy. Not-found when some service has no
  /// provider.
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const;

  /// Same, but services may only map onto proxies in `allowed` (used for
  /// intra-cluster routing, where a border proxy only knows SCT_P of its
  /// own cluster). Source/destination need not be in `allowed`. The
  /// optional `filter` further prunes (proxy, service) candidates.
  [[nodiscard]] ServicePath route_within(
      const ServiceRequest& request, const std::vector<NodeId>& allowed,
      const NodeServiceFilter& filter = nullptr) const;

 private:
  const OverlayNetwork& net_;
  OverlayDistance distance_;
};

/// The optimal path for `request` mapping SG vertex v onto one of
/// `candidates[v]` (proxy ids, one list per vertex; their order breaks
/// cost ties) under `distance(a, b)`, a callable on proxy ids that is 0
/// when a == b. The flat router's solve, and the hierarchical router's
/// leaf solve over SCT_P; the endpoints must be valid proxies.
template <typename Distance>
[[nodiscard]] ServicePath solve_candidates(
    const ServiceRequest& request,
    const std::vector<std::vector<int>>& candidates,
    const Distance& distance) {
  const DagSolution solved =
      solve_service_dag(request.graph, candidates, request.source.value(),
                        request.destination.value(), distance);
  ServicePath path;
  if (!solved.found) return path;
  path.found = true;
  path.cost = solved.cost;
  path.hops.reserve(solved.assignments.size() + 2);
  path.hops.push_back(ServiceHop{request.source, ServiceId{}});
  for (const DagAssignment& a : solved.assignments) {
    path.hops.push_back(
        ServiceHop{NodeId(a.location), request.graph.label(a.sg_vertex)});
  }
  path.hops.push_back(ServiceHop{request.destination, ServiceId{}});
  return path;
}

}  // namespace hfc
