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
// back to external-links-only selection (ablation A5).
//
// The same router serves every depth of HfcTopology (DESIGN.md §5): a
// request between two proxies of a group runs
//   1. candidate groups per SG vertex: the group's children whose
//      aggregate capability hosts the service, less crankback exclusions
//      and the leaf clusters `cluster_ok` rejects;
//   2. the group-level CSP (search_csp), dissected into runs;
//   3. each run solved inside its child: flat routing ([11]) at a leaf
//      cluster, the same steps one level down at an inner group;
//   4. the runs joined by relays through the live links of every level;
//   5. a failed run reported as (unit, service) pairs and cranked back.
// Over a one-level topology — the root's children are the clusters —
// that is exactly the paper's §5.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/csp_kernel.h"
#include "routing/flat_router.h"
#include "routing/service_path.h"

namespace hfc {

class DistanceService;

/// Feasibility filters for QoS-style routing (paper §7 future work), as
/// candidate pruning. `cluster_ok(c, s)` prunes clusters as providers of
/// service s at the CSP level (e.g. aggregate capacity below the session
/// demand); `node_ok(p, s)` prunes proxies inside a cluster, which
/// crankback answers when an optimistic aggregate passed cluster_ok.
/// `node_up(p)` is *liveness*: a down proxy neither provides nor relays,
/// and links with a down end fall back (LiveLinkView), while a proxy
/// node_ok rejects may still relay. Null members accept everything.
struct RoutingFilters {
  std::function<bool(ClusterId, ServiceId)> cluster_ok;
  NodeServiceFilter node_ok;
  std::function<bool(NodeId)> node_up;
};

/// Routing outcome under filters, including how often the router had to
/// back out of a unit whose aggregate state proved too optimistic.
struct RouteResult {
  ServicePath path;
  std::size_t crankbacks = 0;
};

class ConquerPipeline;

struct HierarchicalRoutingParams {
  /// Account for unavoidable intra-cluster border-to-border distances when
  /// selecting the CSP (the paper's back-tracking refinement). When false,
  /// CSPs are ranked by external link lengths only.
  bool use_internal_lower_bounds = true;
};

class HierarchicalServiceRouter {
 public:
  using RouteResult = hfc::RouteResult;

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

  /// Full pipeline: map -> CSP -> divide -> conquer, at every level.
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const;

  /// Filtered pipeline with crankback: a run its unit cannot serve has its
  /// (unit, service) pairs excluded and that level's CSP recomputed;
  /// `max_crankbacks` bounds the crankbacks of all levels together.
  [[nodiscard]] RouteResult route_with_crankback(
      const ServiceRequest& request, const RoutingFilters& filters,
      std::size_t max_crankbacks = 8) const;

  /// Graceful degradation: route_with_crankback treating every proxy `up`
  /// rejects as crashed — it cannot serve, relay, or anchor a border pair.
  /// Finds a valid path whenever one exists among the survivors.
  [[nodiscard]] RouteResult route_degraded(
      const ServiceRequest& request, std::function<bool(NodeId)> up,
      std::size_t max_crankbacks = 8) const;

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

  /// Conquer under filters: the hops of the solved runs, or on failure
  /// the (cluster, service) pairs of the failed run so the caller can
  /// crank back; both empty when a relay found its clusters disconnected.
  struct ConquerResult {
    ServicePath path;
    Exclusions infeasible;
  };
  [[nodiscard]] ConquerResult conquer_filtered(
      const Csp& csp, const std::vector<ChildRequest>& children,
      const ServiceRequest& request, const RoutingFilters& filters) const;

  /// Replace the derived aggregate capability of one cluster (e.g. with
  /// the outcome of the simulated §4 protocol). `services` ascending.
  void set_cluster_capability(ClusterId cluster,
                              std::vector<ServiceId> services);

  /// Re-derive SCT_C only for clusters whose topology generation stamp
  /// changed since construction / the previous sync (incremental churn,
  /// DESIGN.md §9, one-level topologies). Dead clusters resolve to an
  /// empty aggregate and drop out of CSP candidacy. O(live changed
  /// clusters), not O(C).
  void sync_with_topology();

  /// Leaf clusters whose aggregate service set (SCT_C) contains `service`.
  [[nodiscard]] std::vector<ClusterId> clusters_hosting(
      ServiceId service) const;

  /// The aggregate SCT_C of one cluster, sorted ascending (empty for dead
  /// slots after sync). Exposed for snapshot capture and the serving
  /// tests, which assert a frozen snapshot derives byte-identical
  /// aggregates to the live router (src/serve, DESIGN.md §12).
  [[nodiscard]] const std::vector<ServiceId>& cluster_capability(
      ClusterId cluster) const;

  /// Aggregate service capability of any group (union over its nodes).
  [[nodiscard]] bool group_hosts(ClusterId group, ServiceId service) const;

 private:
  friend class ConquerPipeline;

  /// The endpoint checks of every entry point.
  void require_endpoints(const ServiceRequest& request) const;

  const OverlayNetwork& net_;
  OverlayDistance distance_;
  FlatServiceRouter flat_;
  /// capabilities_[g] = the aggregate services of group g, ascending, for
  /// every group but the root.
  std::vector<std::vector<ServiceId>> capabilities_;
  const HfcTopology& topo_;
  HierarchicalRoutingParams params_;
  /// Topology generation each SCT_C entry was derived at (sync_with_topology).
  std::vector<std::uint64_t> synced_gen_;
};

}  // namespace hfc
