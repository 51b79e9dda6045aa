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
// current cluster, which makes the cost function Markovian again; the
// search and the dissection are shared with MultiLevelRouter
// (routing/csp_kernel.h). One
// deliberate refinement over the paper's worked example: we also count
// the source proxy's internal distance to its cluster's exit border
// (the example omits it; including it is still a valid lower bound and
// strictly better informed). Set
// `HierarchicalRoutingParams::use_internal_lower_bounds = false` to fall
// back to external-links-only selection (ablation A5).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/csp_kernel.h"
#include "routing/flat_router.h"
#include "routing/flat_table.h"
#include "routing/service_path.h"

namespace hfc {

struct HierarchicalRoutingParams {
  /// Account for unavoidable intra-cluster border-to-border distances when
  /// selecting the CSP (the paper's back-tracking refinement). When false,
  /// CSPs are ranked by external link lengths only.
  bool use_internal_lower_bounds = true;
};

/// Feasibility filters for QoS-style routing (paper §7 future work).
/// `cluster_ok(c, s)` prunes clusters as providers of service s at the
/// CSP level (e.g. aggregate capacity below the session demand);
/// `node_ok(p, s)` prunes concrete proxies at the intra-cluster level.
/// Null members accept everything. Because aggregation can be optimistic,
/// a CSP that passed cluster_ok may still fail node_ok inside a cluster —
/// `route_with_crankback` handles that by excluding the failing
/// (cluster, service) pairs and recomputing the CSP.
/// `node_up(p)` is a *liveness* predicate, distinct from node_ok: a down
/// proxy can neither provide services NOR relay traffic, and border pairs
/// with a down end are replaced by the next-closest surviving pair
/// (HfcTopology::surviving_border_pair). node_ok keeps its weaker
/// semantics — a node_ok-rejected border may still relay.
struct RoutingFilters {
  std::function<bool(ClusterId, ServiceId)> cluster_ok;
  NodeServiceFilter node_ok;
  std::function<bool(NodeId)> node_up;
};

/// Liveness-aware view of the topology's border tables, scoped to one
/// routing computation. Surviving pairs are resolved lazily through
/// HfcTopology::surviving_border_pair and memoized per unordered cluster
/// pair, so a C-cluster route pays at most one member re-scan per pair it
/// actually touches. With a null predicate it is a zero-overhead
/// pass-through to the stored borders.
class BorderView {
 public:
  BorderView(const HfcTopology& topo, std::function<bool(NodeId)> node_up);

  /// True when a surviving border pair exists between the two clusters.
  [[nodiscard]] bool connected(ClusterId a, ClusterId b) const;
  /// Surviving border inside `from` facing `toward`; invalid if none.
  [[nodiscard]] NodeId border(ClusterId from, ClusterId toward) const;
  /// Length of the surviving external link; +inf when disconnected.
  [[nodiscard]] double external_length(ClusterId a, ClusterId b) const;

  /// The surviving link from `from` toward `toward`, resolved in one
  /// lookup: `exit` = border(from, toward), `entry` = border(toward, from).
  using Link = CspLink;
  [[nodiscard]] Link link(ClusterId from, ClusterId toward) const;

 private:
  struct Pair {
    std::uint64_t key = 0;  ///< (min cluster, max cluster)
    NodeId in_a, in_b;      ///< keyed with a < b
    double length = 0;
    bool found = false;
  };
  const Pair& resolve(ClusterId a, ClusterId b) const;

  const HfcTopology& topo_;
  std::function<bool(NodeId)> node_up_;
  mutable FlatTable<Pair> memo_;
};

class HierarchicalServiceRouter {
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

  /// Full pipeline: map -> CSP -> divide -> conquer.
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const;

  /// Routing outcome under filters, including how often the router had to
  /// back out of a cluster whose aggregate state proved too optimistic.
  struct RouteResult {
    ServicePath path;
    std::size_t crankbacks = 0;
  };
  /// Filtered pipeline with crankback: when a child request cannot be
  /// resolved inside its cluster (node_ok leaves a service without a
  /// provider), the infeasible (cluster, service) pairs are excluded and
  /// the CSP recomputed, up to `max_crankbacks` times.
  [[nodiscard]] RouteResult route_with_crankback(
      const ServiceRequest& request, const RoutingFilters& filters,
      std::size_t max_crankbacks = 8) const;

  /// Graceful degradation: route while treating every proxy rejected by
  /// `up` as crashed — it cannot serve, relay, or anchor a border pair;
  /// broken pairs fall back to the next-closest surviving pair. Built on
  /// route_with_crankback, so clusters whose promise depended on down
  /// proxies are backed out of. Finds a valid path whenever one exists in
  /// the surviving HFC overlay.
  [[nodiscard]] RouteResult route_degraded(
      const ServiceRequest& request, std::function<bool(NodeId)> up,
      std::size_t max_crankbacks = 8) const;

  /// --- introspection points, exposed for tests and the simulator ---

  struct CspElement {
    std::size_t sg_vertex = 0;
    ClusterId cluster;
  };
  /// A cluster-level service path: one cluster per SG vertex of the chosen
  /// configuration. `lower_bound` is the CSP's cost under the selection
  /// metric (external links + unavoidable internal segments).
  struct Csp {
    bool found = false;
    double lower_bound = 0.0;
    std::vector<CspElement> elements;
  };
  [[nodiscard]] Csp compute_csp(const ServiceRequest& request) const;

  /// Excluded (cluster, service) candidate pairs, as accumulated by
  /// crankback.
  using Exclusions = std::vector<std::pair<ClusterId, ServiceId>>;
  [[nodiscard]] Csp compute_csp(const ServiceRequest& request,
                                const RoutingFilters& filters,
                                const Exclusions& exclusions) const;

  /// One child request: a linear chain of consecutive CSP services inside
  /// a single cluster, between that cluster's entry and exit nodes.
  struct ChildRequest {
    ClusterId cluster;
    ServiceRequest request;
  };
  [[nodiscard]] std::vector<ChildRequest> divide(
      const Csp& csp, const ServiceRequest& request) const;
  /// Same, resolving entry/exit borders through a liveness-aware view (the
  /// view must be the one the CSP was computed under).
  [[nodiscard]] std::vector<ChildRequest> divide(
      const Csp& csp, const ServiceRequest& request,
      const BorderView& view) const;

  /// Solve the child requests (flat routing restricted to each cluster's
  /// members) and compose the final concrete path, inserting border relay
  /// hops between clusters.
  [[nodiscard]] ServicePath conquer(const Csp& csp,
                                    const std::vector<ChildRequest>& children,
                                    const ServiceRequest& request) const;

  /// Conquer under a node filter; on failure reports exactly which
  /// (cluster, service) pairs had no feasible provider so the caller can
  /// crank back.
  struct ConquerResult {
    ServicePath path;
    Exclusions infeasible;  ///< non-empty iff a child failed
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
  const OverlayNetwork& net_;
  const HfcTopology& topo_;
  OverlayDistance distance_;
  HierarchicalRoutingParams params_;
  FlatServiceRouter flat_;
  /// cluster_services_[c] = aggregate SCT of cluster c, sorted ascending.
  std::vector<std::vector<ServiceId>> cluster_services_;
  /// Topology generation each SCT_C entry was derived at (sync_with_topology).
  std::vector<std::uint64_t> synced_gen_;
};

}  // namespace hfc
