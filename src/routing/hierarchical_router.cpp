#include "routing/hierarchical_router.h"

#include <algorithm>
#include <utility>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/require.h"

namespace hfc {

namespace {

/// The endpoint checks of every routing entry point, made before the
/// endpoints reach the clustering.
void require_endpoints(const ServiceRequest& request, std::size_t proxies) {
  require(request.source.valid() && request.source.idx() < proxies,
          "HierarchicalServiceRouter: bad source");
  require(request.destination.valid() && request.destination.idx() < proxies,
          "HierarchicalServiceRouter: bad destination");
}

CspEnds<ClusterId> ends_of(const HfcTopology& topo,
                           const ServiceRequest& request) {
  return {request.source, request.destination,
          topo.cluster_of(request.source),
          topo.cluster_of(request.destination)};
}

}  // namespace

BorderView::BorderView(const HfcTopology& topo,
                       std::function<bool(NodeId)> node_up)
    : topo_(topo), node_up_(std::move(node_up)) {}

const BorderView::Pair& BorderView::resolve(ClusterId a, ClusterId b) const {
  // Key on the unordered pair; store oriented as (min, max).
  const ClusterId lo = a < b ? a : b;
  const ClusterId hi = a < b ? b : a;
  const auto [slot, inserted] = memo_.emplace(
      csp_detail::pack(csp_detail::bits(lo), csp_detail::bits(hi)));
  Pair& pair = memo_.entries[slot];
  if (!inserted) return pair;
  const HfcTopology::SurvivingPair sp =
      topo_.surviving_border_pair(lo, hi, node_up_);
  if (sp.is_fallback) {
    static obs::Counter& fallbacks =
        obs::MetricsRegistry::global().counter("fault.border_fallbacks");
    fallbacks.add(1);
  } else if (!sp.found) {
    static obs::Counter& unreachable =
        obs::MetricsRegistry::global().counter("fault.border_unreachable");
    unreachable.add(1);
  }
  pair.in_a = sp.in_from;
  pair.in_b = sp.in_toward;
  pair.length = sp.length;
  pair.found = sp.found;
  return pair;
}

BorderView::Link BorderView::link(ClusterId from, ClusterId toward) const {
  const Pair& pair = resolve(from, toward);
  if (!pair.found) return Link{};
  return from < toward ? Link{pair.in_a, pair.in_b, pair.length, true}
                       : Link{pair.in_b, pair.in_a, pair.length, true};
}

bool BorderView::connected(ClusterId a, ClusterId b) const {
  return resolve(a, b).found;
}

NodeId BorderView::border(ClusterId from, ClusterId toward) const {
  return link(from, toward).exit;
}

double BorderView::external_length(ClusterId a, ClusterId b) const {
  return link(a, b).length;
}

HierarchicalServiceRouter::HierarchicalServiceRouter(
    const OverlayNetwork& net, const HfcTopology& topo,
    OverlayDistance decision_distance, HierarchicalRoutingParams params)
    : net_(net),
      topo_(topo),
      distance_(std::move(decision_distance)),
      params_(params),
      flat_(net, distance_) {
  HFC_TRACE_SPAN("routing.derive_capabilities");
  require(static_cast<bool>(distance_),
          "HierarchicalServiceRouter: null distance");
  require(topo_.node_count() == net_.size(),
          "HierarchicalServiceRouter: topology/network size mismatch");
  // Derive SCT_C: the aggregate service set of a cluster is the union of
  // its members' sets (paper §4, footnote 5).
  cluster_services_.resize(topo_.cluster_count());
  synced_gen_.resize(topo_.cluster_count());
  for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
    const ClusterId id(static_cast<int>(c));
    cluster_services_[c] = net_.aggregate_services(topo_.members(id));
    synced_gen_[c] = topo_.generation(id);
  }
}

void HierarchicalServiceRouter::sync_with_topology() {
  static obs::Counter& refreshes =
      obs::MetricsRegistry::global().counter("routing.sct_refreshes");
  const std::size_t count = topo_.cluster_count();
  cluster_services_.resize(count);
  synced_gen_.resize(count, static_cast<std::uint64_t>(-1));
  for (std::size_t c = 0; c < count; ++c) {
    const ClusterId id(static_cast<int>(c));
    const std::uint64_t gen = topo_.generation(id);
    if (synced_gen_[c] == gen) continue;
    synced_gen_[c] = gen;
    refreshes.add(1);
    cluster_services_[c] = net_.aggregate_services(topo_.members(id));
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
  require(cluster.valid() && cluster.idx() < cluster_services_.size(),
          "set_cluster_capability: bad cluster");
  require(std::is_sorted(services.begin(), services.end()),
          "set_cluster_capability: services must be sorted");
  cluster_services_[cluster.idx()] = std::move(services);
}

const std::vector<ServiceId>& HierarchicalServiceRouter::cluster_capability(
    ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < cluster_services_.size(),
          "HierarchicalServiceRouter::cluster_capability: bad cluster");
  return cluster_services_[cluster.idx()];
}

std::vector<ClusterId> HierarchicalServiceRouter::clusters_hosting(
    ServiceId service) const {
  std::vector<ClusterId> out;
  for (std::size_t c = 0; c < cluster_services_.size(); ++c) {
    if (std::binary_search(cluster_services_[c].begin(),
                           cluster_services_[c].end(), service)) {
      out.push_back(ClusterId(static_cast<int>(c)));
    }
  }
  return out;
}

HierarchicalServiceRouter::Csp HierarchicalServiceRouter::compute_csp(
    const ServiceRequest& request) const {
  return compute_csp(request, RoutingFilters{}, {});
}

HierarchicalServiceRouter::Csp HierarchicalServiceRouter::compute_csp(
    const ServiceRequest& request, const RoutingFilters& filters,
    const Exclusions& exclusions) const {
  require_endpoints(request, net_.size());
  HFC_TRACE_SPAN("routing.csp");
  static obs::Counter& csp_calls =
      obs::MetricsRegistry::global().counter("routing.csp_calls");
  csp_calls.add(1);
  Csp csp;
  const ServiceGraph& graph = request.graph;
  const CspEnds<ClusterId> ends = ends_of(topo_, request);
  const ClusterId src_cluster = ends.source_unit;
  const ClusterId dst_cluster = ends.destination_unit;
  const bool lb = params_.use_internal_lower_bounds;
  const BorderView view(topo_, filters.node_up);

  if (graph.empty()) {
    if (src_cluster == dst_cluster) {
      csp.found = true;
      csp.lower_bound = distance_(request.source, request.destination);
      return csp;
    }
    if (!view.connected(src_cluster, dst_cluster)) return csp;
    const NodeId bu = view.border(src_cluster, dst_cluster);
    const NodeId bv = view.border(dst_cluster, src_cluster);
    double total = view.external_length(src_cluster, dst_cluster);
    if (request.source != bu) total += distance_(request.source, bu);
    if (request.destination != bv) total += distance_(bv, request.destination);
    csp.found = true;
    csp.lower_bound = total;
    return csp;
  }

  // Candidate clusters per vertex from SCT_C, pruned by the cluster-level
  // feasibility filter and the crankback exclusions.
  const auto excluded = [&exclusions](ClusterId c, ServiceId s) {
    for (const auto& [ec, es] : exclusions) {
      if (ec == c && es == s) return true;
    }
    return false;
  };
  std::vector<std::vector<ClusterId>> candidates(graph.size());
  for (std::size_t v = 0; v < graph.size(); ++v) {
    const ServiceId s = graph.label(v);
    for (ClusterId c : clusters_hosting(s)) {
      if (filters.cluster_ok && !filters.cluster_ok(c, s)) continue;
      if (excluded(c, s)) continue;
      candidates[v].push_back(c);
    }
    if (candidates[v].empty()) return csp;  // unsatisfiable system-wide
  }

  const CspSearch<ClusterId> found =
      search_csp(graph, ends, candidates, view, distance_, lb);
  if (!found.found) return csp;
  csp.found = true;
  csp.lower_bound = found.lower_bound;
  csp.elements.reserve(found.steps.size());
  for (const CspStep<ClusterId>& step : found.steps) {
    csp.elements.push_back(CspElement{step.sg_vertex, step.unit});
  }
  return csp;
}

std::vector<HierarchicalServiceRouter::ChildRequest>
HierarchicalServiceRouter::divide(const Csp& csp,
                                  const ServiceRequest& request) const {
  return divide(csp, request, BorderView(topo_, nullptr));
}

std::vector<HierarchicalServiceRouter::ChildRequest>
HierarchicalServiceRouter::divide(const Csp& csp, const ServiceRequest& request,
                                  const BorderView& view) const {
  HFC_TRACE_SPAN("routing.divide");
  require(csp.found, "divide: CSP not found");
  static obs::Counter& child_requests =
      obs::MetricsRegistry::global().counter("routing.child_requests");
  std::vector<ChildRequest> children;
  for (UnitRun<ClusterId>& run :
       dissect_runs(csp.elements, &CspElement::cluster, request.graph,
                    ends_of(topo_, request), view)) {
    ChildRequest child;
    child.cluster = run.unit;
    child.request.source = run.entry;
    child.request.destination = run.exit;
    child.request.graph = ServiceGraph::linear(run.chain);
    children.push_back(std::move(child));
  }
  child_requests.add(children.size());
  return children;
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
  HFC_TRACE_SPAN("routing.conquer");
  require(csp.found, "conquer: CSP not found");
  const ClusterId src_cluster = topo_.cluster_of(request.source);
  const ClusterId dst_cluster = topo_.cluster_of(request.destination);
  const BorderView view(topo_, filters.node_up);

  ConquerResult result;
  std::vector<ServiceHop> hops;
  append_hop(hops, ServiceHop{request.source, ServiceId{}});

  if (children.empty()) {
    // Pure relay request (empty SG): follow the HFC hop path through the
    // surviving border pair.
    if (src_cluster != dst_cluster) {
      ensure(view.connected(src_cluster, dst_cluster),
             "conquer: relay request across a severed cluster pair");
      append_hop(hops, ServiceHop{view.border(src_cluster, dst_cluster),
                                  ServiceId{}});
      append_hop(hops, ServiceHop{view.border(dst_cluster, src_cluster),
                                  ServiceId{}});
    }
    append_hop(hops, ServiceHop{request.destination, ServiceId{}});
  } else {
    // Bridge from the source into the first child's cluster if needed.
    if (children.front().cluster != src_cluster) {
      append_hop(hops, ServiceHop{
                           view.border(src_cluster, children.front().cluster),
                           ServiceId{}});
    }
    for (const ChildRequest& child : children) {
      const ServicePath child_path = flat_.route_within(
          child.request, topo_.members(child.cluster), filters.node_ok);
      if (!child_path.found) {
        // The aggregate state (or an optimistic QoS aggregate) promised
        // this cluster could serve the chain, but some service has no
        // feasible provider in it. Report the precise gaps for crankback.
        for (ServiceId s : child.request.graph.distinct_services()) {
          bool feasible = false;
          for (NodeId member : topo_.members(child.cluster)) {
            if (net_.hosts(member, s) &&
                (!filters.node_ok || filters.node_ok(member, s))) {
              feasible = true;
              break;
            }
          }
          if (!feasible) result.infeasible.emplace_back(child.cluster, s);
        }
        ensure(!result.infeasible.empty(),
               "conquer: child failed but every service looks feasible");
        return result;
      }
      for (const ServiceHop& hop : child_path.hops) append_hop(hops, hop);
    }
    // Bridge from the last child's cluster to the destination if needed.
    if (children.back().cluster != dst_cluster) {
      append_hop(hops, ServiceHop{
                           view.border(dst_cluster, children.back().cluster),
                           ServiceId{}});
    }
    append_hop(hops, ServiceHop{request.destination, ServiceId{}});
  }

  result.path.found = true;
  result.path.hops = std::move(hops);
  result.path.cost = path_length(result.path, distance_);
  return result;
}

HierarchicalServiceRouter::RouteResult
HierarchicalServiceRouter::route_with_crankback(
    const ServiceRequest& request, const RoutingFilters& filters,
    std::size_t max_crankbacks) const {
  require_endpoints(request, net_.size());
  RouteResult result;
  Exclusions exclusions;
  static obs::Counter& crankbacks =
      obs::MetricsRegistry::global().counter("routing.crankbacks");
  // Liveness folds into the node filter as well: a down proxy is not a
  // feasible provider of anything (and BorderView keeps it off relay
  // positions), so crankback backs out of clusters whose promise
  // depended on crashed proxies.
  RoutingFilters eff = filters;
  if (eff.node_up) {
    eff.node_ok = [up = eff.node_up, ok = filters.node_ok](
                      NodeId node, ServiceId service) {
      return up(node) && (!ok || ok(node, service));
    };
  }
  const BorderView view(topo_, eff.node_up);
  for (std::size_t attempt = 0; attempt <= max_crankbacks; ++attempt) {
    const Csp csp = compute_csp(request, eff, exclusions);
    if (!csp.found) return result;  // nothing feasible remains
    const std::vector<ChildRequest> children = divide(csp, request, view);
    ConquerResult conquered =
        conquer_filtered(csp, children, request, eff);
    if (conquered.path.found) {
      result.path = std::move(conquered.path);
      return result;
    }
    ++result.crankbacks;
    crankbacks.add(1);
    exclusions.insert(exclusions.end(), conquered.infeasible.begin(),
                      conquered.infeasible.end());
  }
  return result;  // crankback budget exhausted
}

HierarchicalServiceRouter::RouteResult
HierarchicalServiceRouter::route_degraded(const ServiceRequest& request,
                                          std::function<bool(NodeId)> up,
                                          std::size_t max_crankbacks) const {
  require_endpoints(request, net_.size());
  HFC_TRACE_SPAN("routing.route_degraded");
  static obs::Counter& degraded =
      obs::MetricsRegistry::global().counter("fault.degraded_requests");
  degraded.add(1);
  RoutingFilters filters;
  filters.node_up = std::move(up);
  return route_with_crankback(request, filters, max_crankbacks);
}

ServicePath HierarchicalServiceRouter::route(
    const ServiceRequest& request) const {
  HFC_TRACE_SPAN("routing.route");
  static obs::Counter& requests =
      obs::MetricsRegistry::global().counter("routing.requests");
  requests.add(1);
  require_endpoints(request, net_.size());
  const Csp csp = compute_csp(request);
  if (!csp.found) return ServicePath{};
  const std::vector<ChildRequest> children = divide(csp, request);
  return conquer(csp, children, request);
}

}  // namespace hfc
