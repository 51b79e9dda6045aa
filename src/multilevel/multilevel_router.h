// Recursive divide-and-conquer service routing over a multi-level HFC
// hierarchy — the §5 algorithm applied at every level of the tree.
//
// Routing a request inside a group proceeds exactly like the paper's
// destination proxy does at the top: map each service onto one of the
// group's children (aggregate capability check), find the group-level
// CSP with internal lower bounds, dissect it into one child request per
// run of consecutive services in the same child, and recurse; leaf
// clusters are fully connected, so the recursion bottoms out in the flat
// algorithm of [11]. The CSP search and the run dissection are the ones
// HierarchicalServiceRouter uses (routing/csp_kernel.h), with sibling
// groups as units and MultiLevelHierarchy::link as the link source, so a
// depth-1 hierarchy routes exactly as the flat router over the same
// clusters and borders.
#pragma once

#include "multilevel/multilevel_hierarchy.h"
#include "overlay/overlay_network.h"
#include "routing/flat_router.h"
#include "routing/service_path.h"

namespace hfc {

class DistanceService;

class MultiLevelRouter {
 public:
  /// References must outlive the router.
  MultiLevelRouter(const OverlayNetwork& net,
                   const MultiLevelHierarchy& hierarchy,
                   OverlayDistance decision_distance);

  /// Same, drawing the decision metric from a distance service (which must
  /// outlive the router).
  MultiLevelRouter(const OverlayNetwork& net,
                   const MultiLevelHierarchy& hierarchy,
                   const DistanceService& decision_distance);

  /// Route hierarchically through every level of the tree.
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const;

  /// Aggregate service capability of a group (union over its nodes).
  [[nodiscard]] bool group_hosts(std::size_t group, ServiceId service) const;

 private:
  /// Route `graph` between two nodes of `group`, recursively. Not found
  /// only if some service lacks a provider inside the group. The group-
  /// level CSP picks one configuration of a non-linear graph, so deeper
  /// recursion only ever sees linear chains.
  [[nodiscard]] ServicePath route_in_group_graph(std::size_t group,
                                                 NodeId entry, NodeId exit,
                                                 const ServiceGraph& graph)
      const;

  const OverlayNetwork& net_;
  const MultiLevelHierarchy& hierarchy_;
  OverlayDistance distance_;
  FlatServiceRouter flat_;
  /// capability_[g] = sorted aggregate service set of group g.
  std::vector<std::vector<ServiceId>> capability_;
};

}  // namespace hfc
