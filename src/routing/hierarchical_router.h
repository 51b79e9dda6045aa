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

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/csp_kernel.h"
#include "routing/service_path.h"
#include "services/service_graph.h"
#include "util/ids.h"

namespace hfc {

class CoordDistanceService;
class PointSet;

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
  /// paper), here an opaque function. Each leaf cluster's host table
  /// (SCT_P) and aggregate capability (SCT_C) are derived from the
  /// placement — exactly what the converged §4 protocol yields; tests can
  /// overwrite SCT_C with protocol output via set_cluster_capability.
  HierarchicalServiceRouter(const OverlayNetwork& net,
                            const HfcTopology& topo,
                            OverlayDistance decision_distance,
                            HierarchicalRoutingParams params = {});

  /// Same, deciding with the coordinate tier: euclidean() over the tier's
  /// coordinate rows, read in place, so the values equal the tier's own.
  /// The tier must outlive the router; the router holds a plain reference
  /// to its rows, which no debug liveness check covers, and does not
  /// check node ids against them beyond the endpoint checks.
  HierarchicalServiceRouter(const OverlayNetwork& net,
                            const HfcTopology& topo,
                            const CoordDistanceService& decision_distance,
                            HierarchicalRoutingParams params = {});

  /// Rebinding clone for snapshot capture (DESIGN.md §12): `other`'s
  /// SCT_P, SCT_C and candidate rank lists over `net` and `topo`, copies
  /// of what `other` reads, with the clusters whose generation moved since
  /// its last sync re-derived. It decides with euclidean() over `coords`,
  /// one row per proxy of `net`, as the coordinate tier constructor does.
  /// `coords` must outlive the router: it is held by plain reference, so
  /// the debug liveness check of `OverlayNetwork::coord_distance_fn()`
  /// does not cover it.
  HierarchicalServiceRouter(const HierarchicalServiceRouter& other,
                            const OverlayNetwork& net,
                            const HfcTopology& topo, const PointSet& coords);

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
  using Csp = CspSearch;
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
  using ChildRequest = UnitRun;
  [[nodiscard]] std::vector<ChildRequest> divide(
      const Csp& csp, const ServiceRequest& request,
      const RoutingFilters& filters = {}) const;

  /// Solve the child requests under `filters` (flat routing over each
  /// cluster's SCT_P) and compose the final concrete path, inserting
  /// border relay hops between clusters: the path, or on failure the
  /// (cluster, service) pairs of the failed run so the caller can crank
  /// back; both empty when a relay found its clusters disconnected.
  struct ConquerResult {
    ServicePath path;
    Exclusions infeasible;
  };
  [[nodiscard]] ConquerResult conquer(
      const Csp& csp, const std::vector<ChildRequest>& children,
      const ServiceRequest& request, const RoutingFilters& filters = {}) const;

  /// Replace the derived aggregate capability of one cluster (e.g. with
  /// the outcome of the simulated §4 protocol). `services` ascending.
  /// SCT_P keeps the placement's hosts, so conquer still maps onto them.
  /// The ancestors' aggregates (the union of their children's) and the
  /// rank lists that name the cluster or an ancestor follow.
  void set_cluster_capability(ClusterId cluster,
                              std::vector<ServiceId> services);

  /// Re-derive SCT_P and SCT_C only for clusters whose topology
  /// generation stamp changed since construction / the previous sync
  /// (incremental churn, DESIGN.md §9, one-level topologies), and move
  /// their rank only in the lists of services that joined or left their
  /// SCT_C. Dead clusters resolve to an empty aggregate and drop out of
  /// CSP candidacy. O(1) when no membership changed since the last sync.
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

  /// Aggregate service capability of any group (union over its nodes);
  /// false for an invalid service.
  [[nodiscard]] bool group_hosts(ClusterId group, ServiceId service) const;

  /// The CSP candidates of `service` under `parent` (an inner group or the
  /// root): the sibling ranks of its children whose SCT_C holds the
  /// service, ascending.
  [[nodiscard]] std::vector<std::uint32_t> candidate_ranks(
      ClusterId parent, ServiceId service) const;

  /// SCT_P of one leaf cluster (paper §5.2): which member hosts which
  /// service, flat. `services` lists the hosted services ascending; the
  /// hosts of services[i] are hosts[offsets[i], offsets[i + 1]),
  /// ascending.
  struct HostTable {
    std::vector<ServiceId> services;
    std::vector<std::uint32_t> offsets{0};
    std::vector<NodeId> hosts;

    /// The members hosting `service`, ascending (empty when none does).
    [[nodiscard]] std::span<const NodeId> hosts_of(ServiceId service) const;
  };

  /// The SCT_P of a leaf cluster, as of the last sync: always the
  /// placement's, whatever set_cluster_capability wrote into SCT_C.
  [[nodiscard]] const HostTable& host_table(ClusterId cluster) const;

 private:
  friend class ConquerPipeline;

  /// Re-derive the SCT_P and SCT_C entries whose cluster generation moved
  /// since the last sync; returns how many.
  std::size_t refresh_stale();

  /// Derive leaf `c`'s SCT_P by a counting pass over its members.
  /// `counts` is scratch, all zero on entry and on return.
  void derive_cluster(std::size_t c, std::vector<std::uint32_t>& counts);

  /// Write `services` as the SCT_C of leaf `cluster`: for each service
  /// that joined or left, its rank moves in its parent's row, and while
  /// that row turns empty or non-empty the parent's rank moves the same
  /// way one level up.
  void set_aggregate(ClusterId cluster, std::span<const ServiceId> services);

  /// The endpoint checks of every entry point.
  void require_endpoints(const ServiceRequest& request) const;

  const OverlayNetwork& net_;
  OverlayDistance distance_;
  /// The coordinate rows of a router built from coordinates, which its
  /// leaf solves read in place; null when it decides with an opaque
  /// function.
  const PointSet* coords_ = nullptr;
  /// capabilities_[c] = the SCT_C of leaf cluster c, ascending.
  std::vector<std::vector<ServiceId>> capabilities_;
  /// One parent's candidate ranks (candidate_ranks) as bits: rank r of
  /// service s is bit r % 64 of bits[s * words + r / 64]. Services past
  /// the end have none. A parent's own SCT_C is its non-empty rows.
  struct RankSets {
    std::size_t words = 0;
    std::vector<std::uint64_t> bits;

    /// Set (`held`) or clear rank `rank` of `service`.
    void assign(ServiceId service, std::uint32_t rank, bool held);

    /// Whether some rank of `service` is set.
    [[nodiscard]] bool any(ServiceId service) const;

    /// f(rank) for each rank of `service`, ascending.
    template <typename F>
    void for_each(ServiceId service, F&& f) const {
      const std::size_t row = service.idx() * words;
      if (row >= bits.size()) return;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t word = bits[row + w]; word != 0;
             word &= word - 1) {
          f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
        }
      }
    }
  };
  /// ranks_[p - cluster_count()] = the candidate ranks under parent p, for
  /// every inner group and the root: the one store of the inner groups'
  /// SCT_C.
  std::vector<RankSets> ranks_;
  /// hosts_[c] = the SCT_P of leaf cluster c.
  std::vector<HostTable> hosts_;
  const HfcTopology& topo_;
  HierarchicalRoutingParams params_;
  /// Topology generation each SCT_C entry was derived at (sync_with_topology).
  std::vector<std::uint64_t> synced_gen_;
  /// The topology's structure generation at the last sync.
  std::uint64_t synced_structure_ = 0;
};

}  // namespace hfc
