#include "routing/hierarchical_router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "routing/live_links.h"
#include "util/require.h"

namespace hfc {

/// One routing computation over the router's tree (steps 1–5 of the
/// header comment): one live-link view, one crankback budget. When it
/// ends, the view's fallback and unreachable pairs go to
/// fault.border_fallbacks and fault.border_unreachable.
class ConquerPipeline {
 public:
  using Csp = HierarchicalServiceRouter::Csp;
  using Exclusions = HierarchicalServiceRouter::Exclusions;
  using Run = HierarchicalServiceRouter::ChildRequest;
  using Conquered = HierarchicalServiceRouter::ConquerResult;

  /// Liveness folds into the node filter: a down proxy provides nothing,
  /// so crankback backs out of units whose promise depended on it. The
  /// live links fall back under the metric the stored pairs were chosen
  /// under: the topology's, or, for one built from coordinates, the
  /// decision metric over them.
  ConquerPipeline(const HierarchicalServiceRouter& router,
                  const RoutingFilters& filters,
                  std::size_t max_crankbacks = 0)
      : router_(router),
        topo_(router.topo_),
        cluster_ok_(filters.cluster_ok),
        node_ok_(filters.node_up
                     ? NodeServiceFilter([up = filters.node_up,
                                          ok = filters.node_ok](
                                             NodeId node, ServiceId service) {
                         return up(node) && (!ok || ok(node, service));
                       })
                     : filters.node_ok),
        links_(topo_, topo_.distance() ? topo_.distance() : router.distance_,
               filters.node_up),
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
    RouteResult result{route_in(topo_.root(), request), crankbacks_};
    if (result.path.found) {
      result.path.cost = path_length(result.path, router_.distance_);
    }
    return result;
  }

  /// Steps 1 and 2 inside `parent`. An empty graph is a relay, priced
  /// through the live link between the endpoints' children.
  [[nodiscard]] Csp search(ClusterId parent, const ServiceRequest& request,
                           const Exclusions& exclusions) const {
    HFC_TRACE_SPAN("routing.csp");
    static obs::Counter& csp_calls =
        obs::MetricsRegistry::global().counter("routing.csp_calls");
    csp_calls.add(1);
    const ServiceGraph& graph = request.graph;
    const CspEnds<ClusterId> ends = ends_in(parent, request);
    const OverlayDistance& distance = router_.distance_;
    if (graph.empty()) {
      if (ends.source_unit == ends.destination_unit) {
        return {true, distance(request.source, request.destination), {}};
      }
      const CspLink link = links_.link(ends.source_unit, ends.destination_unit);
      if (!link.found) return {};
      double total = link.length;
      if (request.source != link.exit) {
        total += distance(request.source, link.exit);
      }
      if (request.destination != link.entry) {
        total += distance(link.entry, request.destination);
      }
      return {true, total, {}};
    }
    std::vector<std::vector<ClusterId>> candidates(graph.size());
    for (std::size_t v = 0; v < graph.size(); ++v) {
      const ServiceId s = graph.label(v);
      for (const ClusterId unit : topo_.group(parent).children) {
        const std::vector<ServiceId>& hosted =
            router_.capabilities_[unit.idx()];
        if (std::binary_search(hosted.begin(), hosted.end(), s) &&
            (!cluster_ok_ || !is_leaf(unit) || cluster_ok_(unit, s)) &&
            std::find(exclusions.begin(), exclusions.end(),
                      std::pair{unit, s}) == exclusions.end()) {
          candidates[v].push_back(unit);
        }
      }
      if (candidates[v].empty()) return {};  // unsatisfiable in `parent`
    }
    return search_csp(graph, ends, candidates, links_, distance,
                      router_.params_.use_internal_lower_bounds);
  }

  /// The runs of a found CSP inside `parent`.
  [[nodiscard]] std::vector<Run> divide(ClusterId parent, const Csp& csp,
                                        const ServiceRequest& request) const {
    HFC_TRACE_SPAN("routing.divide");
    static obs::Counter& child_requests =
        obs::MetricsRegistry::global().counter("routing.child_requests");
    std::vector<Run> runs =
        dissect_runs(csp.steps, &CspStep<ClusterId>::unit, request.graph,
                     ends_in(parent, request), links_);
    child_requests.add(runs.size());
    return runs;
  }

  /// Steps 3 and 4 inside `parent`: the runs solved and joined by relays
  /// from the source to the destination. The path is left uncosted.
  [[nodiscard]] Conquered conquer(ClusterId parent,
                                  const std::vector<Run>& runs,
                                  const ServiceRequest& request) const {
    HFC_TRACE_SPAN("routing.conquer");
    Conquered out;
    std::vector<ServiceHop>& hops = out.path.hops;
    NodeId at = request.source;
    for (const Run& run : runs) {
      if (!relay(parent, at, run.entry, hops)) return out;
      const ServiceRequest child{run.entry, run.exit,
                                 ServiceGraph::linear(run.chain)};
      const ServicePath part =
          is_leaf(run.unit)
              ? router_.flat_.route_within(child, topo_.members(run.unit),
                                           node_ok_)
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
  [[nodiscard]] bool is_leaf(ClusterId unit) const {
    return unit.idx() < topo_.cluster_count();
  }

  /// Steps 1–5 inside `parent`. The crankbacks of every level count
  /// against one budget; once it is spent the computation fails.
  [[nodiscard]] ServicePath route_in(ClusterId parent,
                                     const ServiceRequest& request) const {
    static obs::Counter& crankbacks =
        obs::MetricsRegistry::global().counter("routing.crankbacks");
    Exclusions exclusions;
    for (;;) {
      const Csp csp = search(parent, request, exclusions);
      if (!csp.found) return ServicePath{};
      Conquered conquered =
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
  bool relay(ClusterId unit, NodeId a, NodeId b,
             std::vector<ServiceHop>& hops) const {
    append_hop(hops, ServiceHop{a, ServiceId{}});
    if (a == b) return true;
    if (is_leaf(unit)) {
      append_hop(hops, ServiceHop{b, ServiceId{}});
      return true;
    }
    const ClusterId ua = child_holding(unit, a);
    const ClusterId ub = child_holding(unit, b);
    if (ua == ub) return relay(ua, a, b, hops);
    const CspLink link = links_.link(ua, ub);
    return link.found && relay(ua, a, link.exit, hops) &&
           relay(ub, link.entry, b, hops);
  }

  /// A failed run's (unit, service) pairs: the services no proxy of the
  /// unit provides under node_ok, or all of them when each has one (the
  /// unit's inside failed).
  [[nodiscard]] Exclusions report(ClusterId unit,
                                  const ServiceGraph& chain) const {
    Exclusions out;
    const std::vector<ServiceId> services = chain.distinct_services();
    const std::vector<NodeId>& nodes = topo_.members(unit);
    for (const ServiceId s : services) {
      if (std::none_of(nodes.begin(), nodes.end(), [&](NodeId node) {
            return router_.net_.hosts(node, s) &&
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

  /// The child of `group` holding `node`.
  [[nodiscard]] ClusterId child_holding(ClusterId group, NodeId node) const {
    return topo_.ancestor_of(node, topo_.group(group).level - 1);
  }

  [[nodiscard]] CspEnds<ClusterId> ends_in(
      ClusterId parent, const ServiceRequest& request) const {
    return {request.source, request.destination,
            child_holding(parent, request.source),
            child_holding(parent, request.destination)};
  }

  const HierarchicalServiceRouter& router_;
  const HfcTopology& topo_;
  std::function<bool(ClusterId, ServiceId)> cluster_ok_;
  NodeServiceFilter node_ok_;
  LiveLinkView<ClusterId, HfcTopology> links_;
  std::size_t max_crankbacks_;
  mutable std::size_t crankbacks_ = 0;
};

HierarchicalServiceRouter::HierarchicalServiceRouter(
    const OverlayNetwork& net, const HfcTopology& topo,
    OverlayDistance decision_distance, HierarchicalRoutingParams params)
    : net_(net),
      distance_(std::move(decision_distance)),
      flat_(net, distance_),
      topo_(topo),
      params_(params) {
  require(static_cast<bool>(distance_), "router: null distance");
  HFC_TRACE_SPAN("routing.derive_capabilities");
  require(topo_.node_count() == net_.size(),
          "HierarchicalServiceRouter: topology/network size mismatch");
  const auto t_sync = std::chrono::steady_clock::now();
  // Derive SCT_C: the aggregate service set of a cluster is the union of
  // its members' sets (paper §4, footnote 5), and an inner group's the
  // union of its children's (children precede their parent). The root
  // keeps none.
  const std::size_t clusters = topo_.cluster_count();
  capabilities_.resize(topo_.group_count() - 1);
  synced_gen_.resize(clusters);
  for (std::size_t g = 0; g < capabilities_.size(); ++g) {
    const ClusterId id(static_cast<int>(g));
    if (g < clusters) {
      capabilities_[g] = net_.aggregate_services(topo_.members(id));
      synced_gen_[g] = topo_.generation(id);
      continue;
    }
    std::vector<ServiceId>& merged = capabilities_[g];
    for (const ClusterId child : topo_.group(id).children) {
      merged.insert(merged.end(), capabilities_[child.idx()].begin(),
                    capabilities_[child.idx()].end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  }
  obs::MetricsRegistry::global()
      .counter("construct.router_sync_us")
      .add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t_sync)
              .count()));
}

void HierarchicalServiceRouter::sync_with_topology() {
  static obs::Counter& refreshes =
      obs::MetricsRegistry::global().counter("routing.sct_refreshes");
  for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
    const ClusterId id(static_cast<int>(c));
    const std::uint64_t gen = topo_.generation(id);
    if (synced_gen_[c] == gen) continue;
    synced_gen_[c] = gen;
    refreshes.add(1);
    capabilities_[c] = net_.aggregate_services(topo_.members(id));
  }
}

HierarchicalServiceRouter::HierarchicalServiceRouter(
    const OverlayNetwork& net, const HfcTopology& topo,
    const DistanceService& decision_distance, HierarchicalRoutingParams params)
    : HierarchicalServiceRouter(net, topo,
                                OverlayDistance(decision_distance.fn()),
                                params) {}

void HierarchicalServiceRouter::set_cluster_capability(
    ClusterId cluster, std::vector<ServiceId> services) {
  require(cluster.valid() && cluster.idx() < topo_.cluster_count(),
          "set_cluster_capability: bad cluster");
  require(std::is_sorted(services.begin(), services.end()),
          "set_cluster_capability: services must be sorted");
  capabilities_[cluster.idx()] = std::move(services);
}

const std::vector<ServiceId>& HierarchicalServiceRouter::cluster_capability(
    ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < topo_.cluster_count(),
          "HierarchicalServiceRouter::cluster_capability: bad cluster");
  return capabilities_[cluster.idx()];
}

std::vector<ClusterId> HierarchicalServiceRouter::clusters_hosting(
    ServiceId service) const {
  std::vector<ClusterId> out;
  for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
    if (std::binary_search(capabilities_[c].begin(),
                           capabilities_[c].end(), service)) {
      out.push_back(ClusterId(static_cast<int>(c)));
    }
  }
  return out;
}

bool HierarchicalServiceRouter::group_hosts(ClusterId group,
                                            ServiceId service) const {
  if (group == topo_.root()) {
    const std::vector<ClusterId>& children = topo_.group(group).children;
    return std::any_of(children.begin(), children.end(), [&](ClusterId c) {
      return group_hosts(c, service);
    });
  }
  require(group.valid() && group.idx() < capabilities_.size(),
          "HierarchicalServiceRouter::group_hosts: bad group");
  return std::binary_search(capabilities_[group.idx()].begin(),
                            capabilities_[group.idx()].end(), service);
}

void HierarchicalServiceRouter::require_endpoints(
    const ServiceRequest& request) const {
  require(request.source.valid() && request.source.idx() < net_.size(),
          "router: bad source");
  require(request.destination.valid() &&
              request.destination.idx() < net_.size(),
          "router: bad destination");
}

ServicePath HierarchicalServiceRouter::route(
    const ServiceRequest& request) const {
  HFC_TRACE_SPAN("routing.route");
  static obs::Counter& requests =
      obs::MetricsRegistry::global().counter("routing.requests");
  requests.add(1);
  return route_with_crankback(request, RoutingFilters{}, 0).path;
}

RouteResult HierarchicalServiceRouter::route_with_crankback(
    const ServiceRequest& request, const RoutingFilters& filters,
    std::size_t max_crankbacks) const {
  require_endpoints(request);
  return ConquerPipeline(*this, filters, max_crankbacks).route(request);
}

RouteResult HierarchicalServiceRouter::route_degraded(
    const ServiceRequest& request, std::function<bool(NodeId)> up,
    std::size_t max_crankbacks) const {
  require_endpoints(request);
  HFC_TRACE_SPAN("routing.route_degraded");
  static obs::Counter& degraded =
      obs::MetricsRegistry::global().counter("fault.degraded_requests");
  degraded.add(1);
  RoutingFilters filters;
  filters.node_up = std::move(up);
  return route_with_crankback(request, filters, max_crankbacks);
}

HierarchicalServiceRouter::Csp HierarchicalServiceRouter::compute_csp(
    const ServiceRequest& request, const RoutingFilters& filters,
    const Exclusions& exclusions) const {
  require_endpoints(request);
  return ConquerPipeline(*this, filters)
      .search(topo_.root(), request, exclusions);
}

std::vector<HierarchicalServiceRouter::ChildRequest>
HierarchicalServiceRouter::divide(const Csp& csp, const ServiceRequest& request,
                                  const RoutingFilters& filters) const {
  require(csp.found, "divide: CSP not found");
  return ConquerPipeline(*this, filters)
      .divide(topo_.root(), csp, request);
}

ServicePath HierarchicalServiceRouter::conquer(
    const Csp& csp, const std::vector<ChildRequest>& children,
    const ServiceRequest& request) const {
  return conquer_filtered(csp, children, request, RoutingFilters{}).path;
}

HierarchicalServiceRouter::ConquerResult
HierarchicalServiceRouter::conquer_filtered(
    const Csp& csp, const std::vector<ChildRequest>& children,
    const ServiceRequest& request, const RoutingFilters& filters) const {
  require(csp.found, "conquer: CSP not found");
  ConquerResult result = ConquerPipeline(*this, filters)
                             .conquer(topo_.root(), children, request);
  if (result.path.found) result.path.cost = path_length(result.path, distance_);
  return result;
}

}  // namespace hfc
