#include "routing/hierarchical_router.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>

#include "distance/coord_distance.h"
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
    // Candidates by sibling rank, the order `children` lists them in:
    // each service's candidate ranks, less what the filters reject.
    const std::vector<ClusterId>& units = topo_.group(parent).children;
    const HierarchicalServiceRouter::RankSets& hosting =
        router_.ranks_[parent.idx() - topo_.cluster_count()];
    std::vector<std::vector<std::uint32_t>> candidates(graph.size());
    for (std::size_t v = 0; v < graph.size(); ++v) {
      const ServiceId s = graph.label(v);
      hosting.for_each(s, [&](std::uint32_t rank) {
        const ClusterId unit = units[rank];
        if ((!cluster_ok_ || !is_leaf(unit) || cluster_ok_(unit, s)) &&
            std::find(exclusions.begin(), exclusions.end(),
                      std::pair{unit, s}) == exclusions.end()) {
          candidates[v].push_back(rank);
        }
      });
      if (candidates[v].empty()) return {};  // unsatisfiable in `parent`
    }
    return search_csp(graph, ends, parent, units, candidates, links_,
                      distance, router_.params_.use_internal_lower_bounds);
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
      const ServicePath part = is_leaf(run.unit) ? solve_leaf(run.unit, child)
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

  /// Step 3 at a leaf cluster: the flat algorithm over the run's
  /// candidates, each service's hosts in SCT_P that node_ok accepts. A
  /// router built from coordinates prices them on its rows in place
  /// (euclidean() of a row with itself is 0, as the flat router's rule
  /// gives); one built from a function, through it.
  [[nodiscard]] ServicePath solve_leaf(ClusterId cluster,
                                       const ServiceRequest& child) const {
    const HierarchicalServiceRouter::HostTable& table =
        router_.hosts_[cluster.idx()];
    std::vector<std::vector<int>> candidates(child.graph.size());
    for (std::size_t v = 0; v < child.graph.size(); ++v) {
      const ServiceId s = child.graph.label(v);
      for (const NodeId p : table.hosts_of(s)) {
        if (!node_ok_ || node_ok_(p, s)) candidates[v].push_back(p.value());
      }
    }
    if (const PointSet* coords = router_.coords_) {
      return solve_candidates(child, candidates, [coords](int a, int b) {
        return euclidean(coords->row(static_cast<std::size_t>(a)),
                         coords->row(static_cast<std::size_t>(b)));
      });
    }
    return solve_candidates(child, candidates, [this](int a, int b) {
      if (a == b) return 0.0;
      return router_.distance_(NodeId(a), NodeId(b));
    });
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
    for (const ServiceId s : services) {
      if (!provides(unit, s)) out.emplace_back(unit, s);
    }
    if (out.empty()) {
      for (const ServiceId s : services) out.emplace_back(unit, s);
    }
    return out;
  }

  /// Whether some proxy of `unit` hosts `service` in its leaf's SCT_P and
  /// passes node_ok.
  [[nodiscard]] bool provides(ClusterId unit, ServiceId service) const {
    if (!is_leaf(unit)) {
      const std::vector<ClusterId>& children = topo_.group(unit).children;
      return std::any_of(children.begin(), children.end(),
                         [&](ClusterId c) { return provides(c, service); });
    }
    const std::span<const NodeId> hosts =
        router_.hosts_[unit.idx()].hosts_of(service);
    return std::any_of(hosts.begin(), hosts.end(), [&](NodeId node) {
      return !node_ok_ || node_ok_(node, service);
    });
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

namespace {

/// The decision distance of a router built from coordinates: euclidean()
/// over two rows of `coords`, read in place.
OverlayDistance row_distance(const PointSet& coords) {
  return [&coords](NodeId a, NodeId b) {
    return euclidean(coords[a.idx()], coords[b.idx()]);
  };
}

}  // namespace

HierarchicalServiceRouter::HierarchicalServiceRouter(
    const OverlayNetwork& net, const HfcTopology& topo,
    OverlayDistance decision_distance, HierarchicalRoutingParams params)
    : net_(net),
      distance_(std::move(decision_distance)),
      topo_(topo),
      params_(params) {
  require(static_cast<bool>(distance_), "router: null distance");
  HFC_TRACE_SPAN("routing.derive_capabilities");
  require(topo_.node_count() == net_.size(),
          "HierarchicalServiceRouter: topology/network size mismatch");
  const auto t_sync = std::chrono::steady_clock::now();
  // Derive SCT_P per cluster, and SCT_C: the aggregate service set of a
  // cluster is the union of its members' sets (paper §4, footnote 5).
  const std::size_t clusters = topo_.cluster_count();
  capabilities_.resize(clusters);
  hosts_.resize(clusters);
  synced_gen_.resize(clusters);
  synced_structure_ = topo_.structure_generation();
  std::vector<std::uint32_t> counts;
  std::size_t catalog = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    derive_cluster(c, counts);
    synced_gen_[c] = topo_.generation(ClusterId(static_cast<int>(c)));
    if (!hosts_[c].services.empty()) {
      catalog = std::max(catalog, hosts_[c].services.back().idx() + 1);
    }
  }
  // The candidate ranks, sized once for the services held, then filled
  // by writing each leaf's SCT_C over the empty set it starts with.
  ranks_.resize(topo_.group_count() - clusters);
  for (std::size_t p = 0; p < ranks_.size(); ++p) {
    const ClusterId parent(static_cast<int>(clusters + p));
    ranks_[p].words = (topo_.group(parent).children.size() + 63) / 64;
    ranks_[p].bits.assign(catalog * ranks_[p].words, 0);
  }
  for (std::size_t c = 0; c < clusters; ++c) {
    set_aggregate(ClusterId(static_cast<int>(c)), hosts_[c].services);
  }
  obs::MetricsRegistry::global()
      .counter("construct.router_sync_us")
      .add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t_sync)
              .count()));
}

HierarchicalServiceRouter::HierarchicalServiceRouter(
    const OverlayNetwork& net, const HfcTopology& topo,
    const CoordDistanceService& decision_distance,
    HierarchicalRoutingParams params)
    : HierarchicalServiceRouter(net, topo,
                                row_distance(decision_distance.coords()),
                                params) {
  coords_ = &decision_distance.coords();
}

HierarchicalServiceRouter::HierarchicalServiceRouter(
    const HierarchicalServiceRouter& other, const OverlayNetwork& net,
    const HfcTopology& topo, const PointSet& coords)
    : net_(net),
      distance_(row_distance(coords)),
      coords_(&coords),
      capabilities_(other.capabilities_),
      ranks_(other.ranks_),
      hosts_(other.hosts_),
      topo_(topo),
      params_(other.params_),
      synced_gen_(other.synced_gen_),
      synced_structure_(other.synced_structure_) {
  require(topo_.node_count() == net_.size() &&
              topo_.group_count() == other.topo_.group_count(),
          "HierarchicalServiceRouter: rebinding onto another tree");
  require(coords.size() == net_.size(),
          "HierarchicalServiceRouter: one coordinate row per proxy required");
  refresh_stale();
}

void HierarchicalServiceRouter::sync_with_topology() {
  const std::size_t refreshed = refresh_stale();
  if (refreshed == 0) return;
  static obs::Counter& refreshes =
      obs::MetricsRegistry::global().counter("routing.sct_refreshes");
  refreshes.add(refreshed);
}

std::size_t HierarchicalServiceRouter::refresh_stale() {
  // Every membership change bumps the structure generation, so while it
  // stands still no cluster's generation has moved.
  if (synced_structure_ == topo_.structure_generation()) return 0;
  synced_structure_ = topo_.structure_generation();
  std::size_t refreshed = 0;
  std::vector<std::uint32_t> counts;
  for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
    const ClusterId id(static_cast<int>(c));
    const std::uint64_t gen = topo_.generation(id);
    if (synced_gen_[c] == gen) continue;
    synced_gen_[c] = gen;
    ++refreshed;
    derive_cluster(c, counts);
    set_aggregate(id, hosts_[c].services);
  }
  return refreshed;
}

void HierarchicalServiceRouter::derive_cluster(
    std::size_t c, std::vector<std::uint32_t>& counts) {
  const std::vector<NodeId>& members =
      topo_.members(ClusterId(static_cast<int>(c)));
  HostTable& table = hosts_[c];
  for (const NodeId m : members) {
    for (const ServiceId s : net_.services_at(m)) {
      if (s.idx() >= counts.size()) counts.resize(s.idx() + 1, 0);
      ++counts[s.idx()];
    }
  }
  // The hosted services ascending, by a sweep of the counts; each count
  // becomes its service's write cursor. The vectors keep their capacity.
  table.services.clear();
  table.offsets.clear();
  std::uint32_t total = 0;
  for (std::size_t s = 0; s < counts.size(); ++s) {
    if (counts[s] == 0) continue;
    table.services.emplace_back(static_cast<std::int32_t>(s));
    table.offsets.push_back(total);
    const std::uint32_t n = counts[s];
    counts[s] = total;
    total += n;
  }
  table.offsets.push_back(total);
  table.hosts.resize(total);
  // Members ascending fill each service's range ascending.
  for (const NodeId m : members) {
    for (const ServiceId s : net_.services_at(m)) {
      table.hosts[counts[s.idx()]++] = m;
    }
  }
  for (const ServiceId s : table.services) counts[s.idx()] = 0;
}

void HierarchicalServiceRouter::set_aggregate(
    ClusterId cluster, std::span<const ServiceId> services) {
  std::vector<ServiceId>& held = capabilities_[cluster.idx()];
  if (std::ranges::equal(held, services)) return;
  // A service the cluster gained (lost) sets (clears) its rank in the
  // parent's row. When that row turns non-empty (empty), the parent
  // gained (lost) the service in turn, up to the root; no other row is
  // touched.
  const std::size_t clusters = topo_.cluster_count();
  const auto move = [&](ServiceId s, bool gained) {
    for (ClusterId group = cluster; group != topo_.root();) {
      const ClusterId parent = topo_.group(group).parent;
      const std::vector<ClusterId>& siblings = topo_.group(parent).children;
      const auto rank = static_cast<std::uint32_t>(
          std::lower_bound(siblings.begin(), siblings.end(), group) -
          siblings.begin());
      RankSets& sets = ranks_[parent.idx() - clusters];
      const bool before = sets.any(s);
      sets.assign(s, rank, gained);
      if (sets.any(s) == before) return;
      group = parent;
    }
  };
  // Both lists ascending: a service in one only joined or left.
  auto old_it = held.begin();
  auto new_it = services.begin();
  while (old_it != held.end() || new_it != services.end()) {
    if (new_it == services.end() ||
        (old_it != held.end() && *old_it < *new_it)) {
      move(*old_it++, false);
    } else if (old_it == held.end() || *new_it < *old_it) {
      move(*new_it++, true);
    } else {
      ++old_it;
      ++new_it;
    }
  }
  held.assign(services.begin(), services.end());
}

std::span<const NodeId> HierarchicalServiceRouter::HostTable::hosts_of(
    ServiceId service) const {
  const auto it = std::lower_bound(services.begin(), services.end(), service);
  if (it == services.end() || *it != service) return {};
  const auto i = static_cast<std::size_t>(it - services.begin());
  return {hosts.data() + offsets[i], hosts.data() + offsets[i + 1]};
}

const HierarchicalServiceRouter::HostTable&
HierarchicalServiceRouter::host_table(ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < topo_.cluster_count(),
          "HierarchicalServiceRouter::host_table: bad cluster");
  return hosts_[cluster.idx()];
}

void HierarchicalServiceRouter::set_cluster_capability(
    ClusterId cluster, std::vector<ServiceId> services) {
  require(cluster.valid() && cluster.idx() < topo_.cluster_count(),
          "set_cluster_capability: bad cluster");
  require(std::is_sorted(services.begin(), services.end()),
          "set_cluster_capability: services must be sorted");
  set_aggregate(cluster, services);
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
  require(group.valid() && group.idx() < topo_.group_count(),
          "HierarchicalServiceRouter::group_hosts: bad group");
  if (!service.valid()) return false;
  const std::size_t clusters = topo_.cluster_count();
  if (group.idx() < clusters) {
    return std::binary_search(capabilities_[group.idx()].begin(),
                              capabilities_[group.idx()].end(), service);
  }
  return ranks_[group.idx() - clusters].any(service);
}

void HierarchicalServiceRouter::RankSets::assign(ServiceId service,
                                                 std::uint32_t rank,
                                                 bool held) {
  const std::size_t at = service.idx() * words + rank / 64;
  if (at >= bits.size()) {
    if (!held) return;
    bits.resize((service.idx() + 1) * words, 0);
  }
  const std::uint64_t bit = std::uint64_t{1} << (rank % 64);
  bits[at] = held ? bits[at] | bit : bits[at] & ~bit;
}

bool HierarchicalServiceRouter::RankSets::any(ServiceId service) const {
  const std::size_t row = service.idx() * words;
  if (row >= bits.size()) return false;
  return std::any_of(bits.begin() + static_cast<std::ptrdiff_t>(row),
                     bits.begin() + static_cast<std::ptrdiff_t>(row + words),
                     [](std::uint64_t word) { return word != 0; });
}

std::vector<std::uint32_t> HierarchicalServiceRouter::candidate_ranks(
    ClusterId parent, ServiceId service) const {
  require(parent.valid() && parent.idx() >= topo_.cluster_count() &&
              parent.idx() < topo_.group_count(),
          "HierarchicalServiceRouter::candidate_ranks: not a parent");
  require(service.valid(), "HierarchicalServiceRouter::candidate_ranks: "
                           "invalid service");
  std::vector<std::uint32_t> ranks;
  ranks_[parent.idx() - topo_.cluster_count()].for_each(
      service, [&ranks](std::uint32_t rank) { ranks.push_back(rank); });
  return ranks;
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
