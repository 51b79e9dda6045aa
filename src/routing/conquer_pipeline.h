// The §5 divide-and-conquer pipeline, written once for both hierarchical
// routers (DESIGN.md §5). A request between two proxies of a unit runs:
//   1. candidate units per SG vertex: the unit's children whose aggregate
//      capability hosts the service, less crankback exclusions and the
//      leaf clusters `cluster_ok` rejects;
//   2. the unit-level CSP (search_csp), dissected into runs;
//   3. each run solved inside its unit: flat routing at a leaf cluster,
//      the same pipeline one level down at an inner group;
//   4. the runs joined by relays through the live links of every level;
//   5. a failed run reported as (unit, service) pairs and cranked back.
// HierarchicalServiceRouter runs it over one level of clusters,
// MultiLevelRouter over every level of its tree. Each is a PipelineRouter
// that tells the pipeline its tree: `Unit` and `Store` types; `store()`
// (links and ascending members per unit) and `store_distance()` (the
// metric of its pairs); `lower_bounds()` (§5.1 internal lower bounds);
// `root()`, `children(u)` in candidate order, `child_holding(u, node)`
// and `is_leaf(u)`. `cluster_ok` sees leaf unit u as ClusterId(u).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/csp_kernel.h"
#include "routing/flat_router.h"
#include "routing/live_links.h"
#include "routing/service_path.h"
#include "util/require.h"

namespace hfc {

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

/// The hops of solved runs, or a failed run's (unit, service) pairs,
/// never empty; both empty when a relay found its units disconnected.
template <typename Unit>
struct Conquered {
  ServicePath path;
  std::vector<std::pair<Unit, ServiceId>> infeasible;
};

template <typename Router>
class ConquerPipeline;

/// What both hierarchical routers share: the overlay, the decision
/// metric, the flat router that solves leaf runs, the aggregate
/// capability of every unit, and the entry points, each one pipeline run.
template <typename Router>
class PipelineRouter {
 public:
  using RouteResult = hfc::RouteResult;

  /// Full pipeline: map -> CSP -> divide -> conquer, at every level.
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const {
    HFC_TRACE_SPAN("routing.route");
    static obs::Counter& requests =
        obs::MetricsRegistry::global().counter("routing.requests");
    requests.add(1);
    return route_with_crankback(request, RoutingFilters{}, 0).path;
  }

  /// Filtered pipeline with crankback: a run its unit cannot serve has its
  /// (unit, service) pairs excluded and that level's CSP recomputed;
  /// `max_crankbacks` bounds the crankbacks of all levels together.
  [[nodiscard]] RouteResult route_with_crankback(
      const ServiceRequest& request, const RoutingFilters& filters,
      std::size_t max_crankbacks = 8) const {
    require_endpoints(request);
    return ConquerPipeline<Router>(static_cast<const Router&>(*this), filters,
                                   max_crankbacks)
        .route(request);
  }

  /// Graceful degradation: route_with_crankback treating every proxy `up`
  /// rejects as crashed — it cannot serve, relay, or anchor a border pair.
  /// Finds a valid path whenever one exists among the survivors.
  [[nodiscard]] RouteResult route_degraded(
      const ServiceRequest& request, std::function<bool(NodeId)> up,
      std::size_t max_crankbacks = 8) const {
    require_endpoints(request);
    HFC_TRACE_SPAN("routing.route_degraded");
    static obs::Counter& degraded =
        obs::MetricsRegistry::global().counter("fault.degraded_requests");
    degraded.add(1);
    RoutingFilters filters;
    filters.node_up = std::move(up);
    return route_with_crankback(request, filters, max_crankbacks);
  }

 protected:
  /// `net` must outlive the router.
  PipelineRouter(const OverlayNetwork& net, OverlayDistance distance)
      : net_(net), distance_(std::move(distance)), flat_(net, distance_) {
    require(static_cast<bool>(distance_), "router: null distance");
  }

  /// The endpoint checks of every entry point.
  void require_endpoints(const ServiceRequest& request) const {
    require(request.source.valid() && request.source.idx() < net_.size(),
            "router: bad source");
    require(request.destination.valid() &&
                request.destination.idx() < net_.size(),
            "router: bad destination");
  }

  const OverlayNetwork& net_;
  OverlayDistance distance_;
  FlatServiceRouter flat_;
  /// capabilities_[u] = the aggregate services of unit u, ascending.
  std::vector<std::vector<ServiceId>> capabilities_;

 private:
  friend class ConquerPipeline<Router>;
};

/// One routing computation over a router's tree: one live-link view, one
/// crankback budget. When it ends, the view's fallback and unreachable
/// pairs go to fault.border_fallbacks and fault.border_unreachable.
template <typename Router>
class ConquerPipeline {
 public:
  using Unit = typename Router::Unit;
  using Exclusions = std::vector<std::pair<Unit, ServiceId>>;

  /// Liveness folds into the node filter: a down proxy provides nothing,
  /// so crankback backs out of units whose promise depended on it.
  ConquerPipeline(const Router& router, const RoutingFilters& filters,
                  std::size_t max_crankbacks = 0)
      : router_(router),
        base_(router),
        cluster_ok_(filters.cluster_ok),
        node_ok_(filters.node_up
                     ? NodeServiceFilter([up = filters.node_up,
                                          ok = filters.node_ok](
                                             NodeId node, ServiceId service) {
                         return up(node) && (!ok || ok(node, service));
                       })
                     : filters.node_ok),
        links_(router.store(), router.store_distance(), filters.node_up),
        max_crankbacks_(max_crankbacks) {}

  ~ConquerPipeline() {
    static obs::Counter& fallbacks =
        obs::MetricsRegistry::global().counter("fault.border_fallbacks");
    static obs::Counter& unreachable =
        obs::MetricsRegistry::global().counter("fault.border_unreachable");
    if (links_.fallbacks() > 0) fallbacks.add(links_.fallbacks());
    if (links_.unreachable() > 0) unreachable.add(links_.unreachable());
  }
  ConquerPipeline(const ConquerPipeline&) = delete;
  ConquerPipeline& operator=(const ConquerPipeline&) = delete;

  /// Steps 1–5 from the root, the path costed under the decision metric.
  [[nodiscard]] RouteResult route(const ServiceRequest& request) const {
    RouteResult result{route_in(router_.root(), request), crankbacks_};
    if (result.path.found) {
      result.path.cost = path_length(result.path, base_.distance_);
    }
    return result;
  }

  /// Steps 1 and 2 inside `parent`. An empty graph is a relay, priced
  /// through the live link between the endpoints' units.
  [[nodiscard]] CspSearch<Unit> search(Unit parent,
                                       const ServiceRequest& request,
                                       const Exclusions& exclusions) const {
    HFC_TRACE_SPAN("routing.csp");
    static obs::Counter& csp_calls =
        obs::MetricsRegistry::global().counter("routing.csp_calls");
    csp_calls.add(1);
    const ServiceGraph& graph = request.graph;
    const CspEnds<Unit> ends = ends_in(parent, request);
    if (graph.empty()) {
      if (ends.source_unit == ends.destination_unit) {
        return {true, base_.distance_(request.source, request.destination), {}};
      }
      const CspLink link = links_.link(ends.source_unit, ends.destination_unit);
      if (!link.found) return {};
      double total = link.length;
      if (request.source != link.exit) {
        total += base_.distance_(request.source, link.exit);
      }
      if (request.destination != link.entry) {
        total += base_.distance_(link.entry, request.destination);
      }
      return {true, total, {}};
    }
    std::vector<std::vector<Unit>> candidates(graph.size());
    for (std::size_t v = 0; v < graph.size(); ++v) {
      const ServiceId s = graph.label(v);
      for (const Unit unit : router_.children(parent)) {
        const auto index = csp_detail::bits(unit);
        const std::vector<ServiceId>& hosted = base_.capabilities_[index];
        if (std::binary_search(hosted.begin(), hosted.end(), s) &&
            (!cluster_ok_ || !router_.is_leaf(unit) ||
             cluster_ok_(ClusterId(static_cast<std::int32_t>(index)), s)) &&
            std::find(exclusions.begin(), exclusions.end(),
                      std::pair{unit, s}) == exclusions.end()) {
          candidates[v].push_back(unit);
        }
      }
      if (candidates[v].empty()) return {};  // unsatisfiable in `parent`
    }
    return search_csp(graph, ends, candidates, links_, base_.distance_,
                      router_.lower_bounds());
  }

  /// The runs of a found CSP inside `parent`.
  [[nodiscard]] std::vector<UnitRun<Unit>> divide(
      Unit parent, const CspSearch<Unit>& csp,
      const ServiceRequest& request) const {
    HFC_TRACE_SPAN("routing.divide");
    static obs::Counter& child_requests =
        obs::MetricsRegistry::global().counter("routing.child_requests");
    std::vector<UnitRun<Unit>> runs =
        dissect_runs(csp.steps, &CspStep<Unit>::unit, request.graph,
                     ends_in(parent, request), links_);
    child_requests.add(runs.size());
    return runs;
  }

  /// Steps 3 and 4 inside `parent`: the runs solved and joined by relays
  /// from the source to the destination. The path is left uncosted.
  [[nodiscard]] Conquered<Unit> conquer(Unit parent,
                                        const std::vector<UnitRun<Unit>>& runs,
                                        const ServiceRequest& request) const {
    HFC_TRACE_SPAN("routing.conquer");
    Conquered<Unit> out;
    std::vector<ServiceHop>& hops = out.path.hops;
    NodeId at = request.source;
    for (const UnitRun<Unit>& run : runs) {
      if (!relay(parent, at, run.entry, hops)) return out;
      const ServiceRequest child{run.entry, run.exit,
                                 ServiceGraph::linear(run.chain)};
      const ServicePath part =
          router_.is_leaf(run.unit)
              ? base_.flat_.route_within(
                    child, router_.store().members(run.unit), node_ok_)
              : route_in(run.unit, child);
      if (!part.found) {
        out.infeasible = report(run.unit, child.graph);
        return out;
      }
      for (const ServiceHop& hop : part.hops) append_hop(hops, hop);
      at = run.exit;
    }
    out.path.found = relay(parent, at, request.destination, hops);
    return out;
  }

 private:
  /// Steps 1–5 inside `parent`. The crankbacks of every level count
  /// against one budget; once it is spent the computation fails.
  [[nodiscard]] ServicePath route_in(Unit parent,
                                     const ServiceRequest& request) const {
    static obs::Counter& crankbacks =
        obs::MetricsRegistry::global().counter("routing.crankbacks");
    Exclusions exclusions;
    for (;;) {
      const CspSearch<Unit> csp = search(parent, request, exclusions);
      if (!csp.found) return ServicePath{};
      Conquered<Unit> conquered =
          conquer(parent, divide(parent, csp, request), request);
      if (conquered.path.found) return std::move(conquered.path);
      if (conquered.infeasible.empty() || crankbacks_ > max_crankbacks_) {
        return ServicePath{};
      }
      ++crankbacks_;
      crankbacks.add(1);
      if (crankbacks_ > max_crankbacks_) return ServicePath{};
      exclusions.insert(exclusions.end(), conquered.infeasible.begin(),
                        conquered.infeasible.end());
    }
  }

  /// Append the hops from `a` to `b`, both in `unit`, descending through
  /// the live links of each level; false at a disconnected pair.
  bool relay(Unit unit, NodeId a, NodeId b,
             std::vector<ServiceHop>& hops) const {
    append_hop(hops, ServiceHop{a, ServiceId{}});
    if (a == b) return true;
    if (router_.is_leaf(unit)) {
      append_hop(hops, ServiceHop{b, ServiceId{}});
      return true;
    }
    const Unit ua = router_.child_holding(unit, a);
    const Unit ub = router_.child_holding(unit, b);
    if (ua == ub) return relay(ua, a, b, hops);
    const CspLink link = links_.link(ua, ub);
    return link.found && relay(ua, a, link.exit, hops) &&
           relay(ub, link.entry, b, hops);
  }

  /// A failed run's (unit, service) pairs: the services no proxy of the
  /// unit provides under node_ok, or all of them when each has one (the
  /// unit's inside failed).
  [[nodiscard]] Exclusions report(Unit unit, const ServiceGraph& chain) const {
    Exclusions out;
    const std::vector<ServiceId> services = chain.distinct_services();
    const std::vector<NodeId>& nodes = router_.store().members(unit);
    for (const ServiceId s : services) {
      if (std::none_of(nodes.begin(), nodes.end(), [&](NodeId node) {
            return base_.net_.hosts(node, s) &&
                   (!node_ok_ || node_ok_(node, s));
          })) {
        out.emplace_back(unit, s);
      }
    }
    if (out.empty()) {
      for (const ServiceId s : services) out.emplace_back(unit, s);
    }
    return out;
  }

  [[nodiscard]] CspEnds<Unit> ends_in(Unit parent,
                                      const ServiceRequest& request) const {
    return {request.source, request.destination,
            router_.child_holding(parent, request.source),
            router_.child_holding(parent, request.destination)};
  }

  const Router& router_;
  const PipelineRouter<Router>& base_;
  std::function<bool(ClusterId, ServiceId)> cluster_ok_;
  NodeServiceFilter node_ok_;
  LiveLinkView<Unit, typename Router::Store> links_;
  std::size_t max_crankbacks_;
  mutable std::size_t crankbacks_ = 0;
};

}  // namespace hfc
