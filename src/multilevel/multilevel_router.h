// Recursive divide-and-conquer service routing over a multi-level HFC
// hierarchy — the §5 algorithm applied at every level of the tree.
//
// Inside a group, a request is routed like the paper's destination proxy
// routes at the top: map services onto the group's children, find the
// group-level CSP with internal lower bounds, dissect it into runs and
// recurse; leaf clusters bottom out in the flat algorithm of [11]. It is
// the pipeline HierarchicalServiceRouter runs (routing/conquer_pipeline.h)
// with sibling groups as units and MultiLevelHierarchy as the live-link
// store, so a depth-1 hierarchy routes, cranks back and degrades exactly
// as the flat router over the same clusters and borders.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "multilevel/multilevel_hierarchy.h"
#include "overlay/overlay_network.h"
#include "routing/conquer_pipeline.h"
#include "routing/service_path.h"

namespace hfc {

class DistanceService;

class MultiLevelRouter : public PipelineRouter<MultiLevelRouter> {
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

  // route, route_with_crankback and route_degraded: PipelineRouter.
  // cluster_ok sees leaf group g as ClusterId(g).

  /// Aggregate service capability of a group (union over its nodes).
  [[nodiscard]] bool group_hosts(std::size_t group, ServiceId service) const;

 private:
  friend class ConquerPipeline<MultiLevelRouter>;

  // The pipeline's tree: the hierarchy's groups under its root.
  using Unit = std::size_t;
  using Store = MultiLevelHierarchy;
  [[nodiscard]] std::size_t root() const { return hierarchy_.root(); }
  [[nodiscard]] const std::vector<std::size_t>& children(
      std::size_t group) const {
    return hierarchy_.group(group).children;
  }
  [[nodiscard]] std::size_t child_holding(std::size_t group,
                                          NodeId node) const;
  [[nodiscard]] bool is_leaf(std::size_t group) const {
    return hierarchy_.group(group).level == 1;
  }
  [[nodiscard]] const MultiLevelHierarchy& store() const { return hierarchy_; }
  /// The sibling links were chosen under the decision metric's
  /// coordinates; fallback pairs are measured under it too.
  [[nodiscard]] const OverlayDistance& store_distance() const {
    return distance_;
  }
  static bool lower_bounds() { return true; }

  const MultiLevelHierarchy& hierarchy_;
};

}  // namespace hfc
