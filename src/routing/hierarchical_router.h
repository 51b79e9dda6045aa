// Hierarchical service routing (paper §5): top-down divide-and-conquer.
//
// The destination proxy, holding only partial global state (full state of
// its own cluster + aggregate state of every cluster), first computes a
// *cluster-level service path* (CSP) that fixes which cluster serves each
// service. The CSP is dissected into child requests — one per maximal run
// of consecutive services mapped to the same cluster — which are resolved
// to concrete proxies inside those clusters by the flat algorithm over
// SCT_P, and the child paths are composed into the final service path.
//
// Inter-cluster path selection (§5.1 step 2) does not judge candidate
// CSPs by external border links alone: it also accounts for the internal
// distances a path provably cannot avoid (entry border to exit border
// inside each traversed cluster, and entry border to the destination
// proxy). The paper implements this with a back-tracking verification
// bolted onto DAG-shortest-paths; we achieve the same optimisation
// exactly by augmenting the search state with the entry node of the
// current cluster, which makes the cost function Markovian again. One
// deliberate refinement over the paper's worked example: we also count
// the source proxy's internal distance to its cluster's exit border
// (the example omits it; including it is still a valid lower bound and
// strictly better informed). `use_internal_lower_bounds = false` falls
// back to external-links-only selection (ablation A5). Every step is the
// pipeline MultiLevelRouter runs (routing/conquer_pipeline.h), here over
// one level of clusters.
#pragma once

#include <cstdint>
#include <ranges>
#include <utility>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/conquer_pipeline.h"
#include "routing/service_path.h"

namespace hfc {

struct HierarchicalRoutingParams {
  /// Account for unavoidable intra-cluster border-to-border distances when
  /// selecting the CSP (the paper's back-tracking refinement). When false,
  /// CSPs are ranked by external link lengths only.
  bool use_internal_lower_bounds = true;
};

class HierarchicalServiceRouter
    : public PipelineRouter<HierarchicalServiceRouter> {
 public:
  /// `net` and `topo` must outlive the router. `decision_distance` is what
  /// proxies believe about the overlay (coordinate estimates in the
  /// paper). Aggregate cluster capabilities (SCT_C) are derived from the
  /// placement — exactly what the converged §4 protocol yields; tests can
  /// overwrite them with protocol output via set_cluster_capability.
  HierarchicalServiceRouter(const OverlayNetwork& net,
                            const HfcTopology& topo,
                            OverlayDistance decision_distance,
                            HierarchicalRoutingParams params = {});

  /// Same, drawing the decision metric from a distance service (which must
  /// outlive the router).
  HierarchicalServiceRouter(const OverlayNetwork& net,
                            const HfcTopology& topo,
                            const DistanceService& decision_distance,
                            HierarchicalRoutingParams params = {});

  // route, route_with_crankback and route_degraded: PipelineRouter.

  /// --- the pipeline's steps at the cluster level, exposed for tests,
  /// the simulator and the quickstart example ---

  /// A cluster-level service path: one cluster per SG vertex of the chosen
  /// configuration. `lower_bound` is the CSP's cost under the selection
  /// metric (external links + unavoidable internal segments).
  using Csp = CspSearch<ClusterId>;
  /// Excluded (cluster, service) candidate pairs, as accumulated by
  /// crankback.
  using Exclusions = std::vector<std::pair<ClusterId, ServiceId>>;
  [[nodiscard]] Csp compute_csp(const ServiceRequest& request,
                                const RoutingFilters& filters = {},
                                const Exclusions& exclusions = {}) const;

  /// One child request: a linear chain of consecutive CSP services inside
  /// a single cluster, between that cluster's entry and exit nodes,
  /// resolved through the live links under `filters.node_up` (the filters
  /// the CSP was computed under).
  using ChildRequest = UnitRun<ClusterId>;
  [[nodiscard]] std::vector<ChildRequest> divide(
      const Csp& csp, const ServiceRequest& request,
      const RoutingFilters& filters = {}) const;

  /// Solve the child requests (flat routing restricted to each cluster's
  /// members) and compose the final concrete path, inserting border relay
  /// hops between clusters.
  [[nodiscard]] ServicePath conquer(const Csp& csp,
                                    const std::vector<ChildRequest>& children,
                                    const ServiceRequest& request) const;

  /// Conquer under filters; on failure reports which (cluster, service)
  /// pairs failed so the caller can crank back.
  using ConquerResult = Conquered<ClusterId>;
  [[nodiscard]] ConquerResult conquer_filtered(
      const Csp& csp, const std::vector<ChildRequest>& children,
      const ServiceRequest& request, const RoutingFilters& filters) const;

  /// Replace the derived aggregate capability of one cluster (e.g. with
  /// the outcome of the simulated §4 protocol). `services` ascending.
  void set_cluster_capability(ClusterId cluster,
                              std::vector<ServiceId> services);

  /// Re-derive SCT_C only for clusters whose topology generation stamp
  /// changed since construction / the previous sync (incremental churn,
  /// DESIGN.md §9). Dead clusters resolve to an empty aggregate and drop
  /// out of CSP candidacy. O(live changed clusters), not O(C).
  void sync_with_topology();

  /// Clusters whose aggregate service set (SCT_C) contains `service`.
  [[nodiscard]] std::vector<ClusterId> clusters_hosting(
      ServiceId service) const;

  /// The aggregate SCT_C of one cluster, sorted ascending (empty for dead
  /// slots after sync). Exposed for snapshot capture and the serving
  /// tests, which assert a frozen snapshot derives byte-identical
  /// aggregates to the live router (src/serve, DESIGN.md §12).
  [[nodiscard]] const std::vector<ServiceId>& cluster_capability(
      ClusterId cluster) const;

 private:
  friend class ConquerPipeline<HierarchicalServiceRouter>;

  // The pipeline's tree: every cluster slot under a virtual root.
  using Unit = ClusterId;
  using Store = HfcTopology;
  static ClusterId root() { return ClusterId{}; }
  [[nodiscard]] auto children(ClusterId /*root*/) const {
    return std::views::iota(std::size_t{0}, capabilities_.size()) |
           std::views::transform([](std::size_t c) {
             return ClusterId(static_cast<std::int32_t>(c));
           });
  }
  [[nodiscard]] ClusterId child_holding(ClusterId /*root*/, NodeId node) const {
    return topo_.cluster_of(node);
  }
  static bool is_leaf(ClusterId unit) { return unit.valid(); }
  [[nodiscard]] const HfcTopology& store() const { return topo_; }
  [[nodiscard]] const OverlayDistance& store_distance() const {
    return topo_.distance();
  }
  [[nodiscard]] bool lower_bounds() const {
    return params_.use_internal_lower_bounds;
  }

  const HfcTopology& topo_;
  HierarchicalRoutingParams params_;
  /// Topology generation each SCT_C entry was derived at (sync_with_topology).
  std::vector<std::uint64_t> synced_gen_;
};

}  // namespace hfc
