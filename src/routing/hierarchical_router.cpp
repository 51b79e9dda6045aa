#include "routing/hierarchical_router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/require.h"

namespace hfc {

namespace {

/// Two 32-bit ids as one table key, `hi` in the upper half.
constexpr std::uint64_t pack(std::int32_t hi, std::int32_t lo) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32) |
         static_cast<std::uint32_t>(lo);
}

/// Search-state key: (SG is implicit per table) cluster + entry node.
constexpr std::uint64_t state_key(ClusterId cluster, NodeId entry) {
  return pack(cluster.value(), entry.value());
}

constexpr NodeId entry_of(std::uint64_t key) {
  return NodeId(static_cast<std::int32_t>(key & 0xffffffffULL));
}

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

/// One search state (cluster, entry) of one SG vertex.
struct State {
  std::uint64_t key = 0;
  double cost = std::numeric_limits<double>::infinity();
  // External transitions taken so far; first-order tie-break. The lower
  // bound only prices border chains, so whole-cluster alternatives that
  // share a chain tie at exactly equal cost; preferring fewer crossings
  // picks the realised path with the least unpriced intra-cluster detour
  // (and matches the paper's Figure 7(d) dissection).
  std::uint32_t crossings = 0;
  std::uint32_t cand = 0;  ///< index of the cluster in its vertex's candidates
  // Back-pointer: predecessor vertex (kNone for an initial label), its
  // slot for path recovery, and its key for the tie-break.
  std::uint32_t prev_vertex = kNone;
  std::uint32_t prev_slot = 0;
  std::uint64_t prev_key = 0;
};

/// Entry -> exit decision distance, memoized for one CSP.
struct Memo {
  std::uint64_t key = 0;
  double distance = 0;
};

/// Offer (cost, crossings) reached from state `prev_key` (slot `prev_slot`
/// of vertex `u`) to `target`. Strict improvement wins; equal-cost labels
/// prefer fewer crossings, then, among offers from the same predecessor
/// vertex, the smaller predecessor key. Within one predecessor vertex that
/// is a total order, so the winner does not depend on the order offers
/// arrive in; across predecessor vertices the first in topological order
/// keeps its tie.
void offer(State& target, double cost, std::uint32_t crossings,
           std::uint32_t u, std::uint32_t prev_slot, std::uint64_t prev_key) {
  if (cost < target.cost ||
      (cost == target.cost &&
       (crossings < target.crossings ||
        (crossings == target.crossings && target.prev_vertex == u &&
         prev_key < target.prev_key)))) {
    target.cost = cost;
    target.crossings = crossings;
    target.prev_vertex = u;
    target.prev_slot = prev_slot;
    target.prev_key = prev_key;
  }
}

/// A predecessor state as the relaxation reads it, gathered by cluster.
struct Member {
  std::uint64_t key;
  double cost;
  std::uint32_t crossings;
  std::uint32_t slot;  ///< in its vertex's table
};

/// `states` grouped by candidate cluster: group g is
/// members[offsets[g], offsets[g + 1]). A counting sort, O(states + groups).
void group_by_cluster(const std::vector<State>& states, std::size_t groups,
                      std::vector<std::uint32_t>& offsets,
                      std::vector<Member>& members) {
  offsets.assign(groups + 2, 0);
  for (const State& s : states) ++offsets[s.cand + 2];
  for (std::size_t g = 1; g <= groups; ++g) offsets[g + 1] += offsets[g];
  members.resize(states.size());
  for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
    const State& s = states[slot];
    members[offsets[s.cand + 1]++] = Member{s.key, s.cost, s.crossings, slot};
  }
  offsets.pop_back();
}

/// The endpoint checks of every routing entry point, made before the
/// endpoints reach the clustering.
void require_endpoints(const ServiceRequest& request, std::size_t proxies) {
  require(request.source.valid() && request.source.idx() < proxies,
          "HierarchicalServiceRouter: bad source");
  require(request.destination.valid() && request.destination.idx() < proxies,
          "HierarchicalServiceRouter: bad destination");
}

}  // namespace

BorderView::BorderView(const HfcTopology& topo,
                       std::function<bool(NodeId)> node_up)
    : topo_(topo), node_up_(std::move(node_up)) {}

const BorderView::Pair& BorderView::resolve(ClusterId a, ClusterId b) const {
  // Key on the unordered pair; store oriented as (min, max).
  const ClusterId lo = a < b ? a : b;
  const ClusterId hi = a < b ? b : a;
  const auto [slot, inserted] = memo_.emplace(pack(lo.value(), hi.value()));
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
  const Pair& pair = resolve(from, toward);
  if (!pair.found) return NodeId{};
  return from < toward ? pair.in_a : pair.in_b;
}

double BorderView::external_length(ClusterId a, ClusterId b) const {
  const Pair& pair = resolve(a, b);
  return pair.found ? pair.length
                    : std::numeric_limits<double>::infinity();
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
    std::vector<ServiceId>& agg = cluster_services_[c];
    for (NodeId member : topo_.members(id)) {
      const auto& services = net_.services_at(member);
      agg.insert(agg.end(), services.begin(), services.end());
    }
    std::sort(agg.begin(), agg.end());
    agg.erase(std::unique(agg.begin(), agg.end()), agg.end());
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
    std::vector<ServiceId>& agg = cluster_services_[c];
    agg.clear();
    for (NodeId member : topo_.members(id)) {
      const auto& services = net_.services_at(member);
      agg.insert(agg.end(), services.begin(), services.end());
    }
    std::sort(agg.begin(), agg.end());
    agg.erase(std::unique(agg.begin(), agg.end()), agg.end());
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
  const ClusterId src_cluster = topo_.cluster_of(request.source);
  const ClusterId dst_cluster = topo_.cluster_of(request.destination);
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

  // Decision distance from `entry` to `exit`, memoized: a CSP prices many
  // (state, candidate) transitions over few distinct border pairs.
  FlatTable<Memo> memo;
  const auto internal = [&](NodeId entry, NodeId exit) {
    const auto [slot, inserted] =
        memo.emplace(pack(entry.value(), exit.value()));
    if (inserted) memo.entries[slot].distance = distance_(entry, exit);
    return memo.entries[slot].distance;
  };

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

  // Per SG vertex: (cluster, entry) states.
  std::vector<FlatTable<State>> tables(graph.size());
  const auto state_at = [&tables](std::size_t v, ClusterId cluster,
                                  NodeId entry, std::uint32_t cand) -> State& {
    FlatTable<State>& table = tables[v];
    const std::uint32_t slot = table.emplace(state_key(cluster, entry)).first;
    table.entries[slot].cand = cand;
    return table.entries[slot];
  };

  // Initialise the SG source vertices from the source proxy.
  for (std::size_t v : graph.sources()) {
    for (std::uint32_t j = 0; j < candidates[v].size(); ++j) {
      const ClusterId c = candidates[v][j];
      double cost = 0.0;
      std::uint32_t crossings = 0;
      NodeId entry = request.source;
      if (c != src_cluster) {
        const BorderView::Link link = view.link(src_cluster, c);
        if (!link.found) continue;
        cost = link.length;
        if (lb && request.source != link.exit) {
          cost += internal(request.source, link.exit);
        }
        if (cost == std::numeric_limits<double>::infinity()) continue;
        entry = link.entry;
        crossings = 1;
      }
      State& state = state_at(v, c, entry, j);
      if (cost < state.cost) {
        state.cost = cost;
        state.crossings = crossings;
      }
    }
  }

  // Relax SG edges in topological order, cluster-major: u's states are
  // grouped by cluster c, and for each candidate `next` != c of the
  // successor the border pair is resolved once and only the group's best
  // transition under (cost, crossings, key) is offered to its single
  // target (next, border(next, c)). By offer()'s total order this equals
  // offering every state. Staying in c (next == c) keeps each entry, so
  // those are offered state by state.
  std::vector<std::uint32_t> offsets;
  std::vector<Member> members;
  for (std::size_t u : graph.topological_order()) {
    if (tables[u].entries.empty() || graph.successors(u).empty()) continue;
    group_by_cluster(tables[u].entries, candidates[u].size(), offsets,
                     members);
    const auto uu = static_cast<std::uint32_t>(u);
    for (std::size_t v : graph.successors(u)) {
      for (std::size_t g = 0; g < candidates[u].size(); ++g) {
        if (offsets[g] == offsets[g + 1]) continue;
        const ClusterId c = candidates[u][g];
        const Member* begin = members.data() + offsets[g];
        const Member* end = members.data() + offsets[g + 1];
        for (std::uint32_t j = 0; j < candidates[v].size(); ++j) {
          const ClusterId next = candidates[v][j];
          if (next == c) {
            for (const Member* m = begin; m != end; ++m) {
              offer(state_at(v, c, entry_of(m->key), j), m->cost,
                    m->crossings, uu, m->slot, m->key);
            }
            continue;
          }
          const BorderView::Link link = view.link(c, next);
          if (!link.found) continue;
          double best = std::numeric_limits<double>::infinity();
          const Member* winner = nullptr;
          for (const Member* m = begin; m != end; ++m) {
            double step = link.length;
            if (lb && entry_of(m->key) != link.exit) {
              step += internal(entry_of(m->key), link.exit);
            }
            const double cost = m->cost + step;
            if (cost == std::numeric_limits<double>::infinity()) continue;
            if (winner == nullptr || cost < best ||
                (cost == best &&
                 (m->crossings < winner->crossings ||
                  (m->crossings == winner->crossings &&
                   m->key < winner->key)))) {
              best = cost;
              winner = m;
            }
          }
          if (winner == nullptr) continue;
          offer(state_at(v, next, link.entry, j), best,
                winner->crossings + 1, uu, winner->slot, winner->key);
        }
      }
    }
  }

  // Close at the destination proxy over the SG sink vertices.
  double best = std::numeric_limits<double>::infinity();
  std::uint32_t best_crossings = 0;
  std::size_t best_vertex = 0;
  std::uint32_t best_slot = 0;
  std::uint64_t best_key = 0;
  for (std::size_t v : graph.sinks()) {
    const std::vector<State>& states = tables[v].entries;
    for (std::uint32_t slot = 0; slot < states.size(); ++slot) {
      const State& s = states[slot];
      const ClusterId c(static_cast<int>(s.key >> 32));
      const NodeId entry = entry_of(s.key);
      double cost = s.cost;
      std::uint32_t crossings = s.crossings;
      if (c == dst_cluster) {
        if (lb && entry != request.destination) {
          cost += internal(entry, request.destination);
        }
      } else {
        const BorderView::Link link = view.link(c, dst_cluster);
        if (!link.found) continue;
        double step = link.length;
        if (lb && entry != link.exit) step += internal(entry, link.exit);
        cost += step;
        if (cost == std::numeric_limits<double>::infinity()) continue;
        ++crossings;
        if (lb && link.entry != request.destination) {
          cost += internal(link.entry, request.destination);
        }
      }
      // Same deterministic tie-break as offer(): equal-cost closings
      // prefer fewer crossings, then (within one sink vertex) the smaller
      // state key. Across sinks, the first vertex in graph.sinks() order
      // wins.
      if (cost < best ||
          (cost == best &&
           (crossings < best_crossings ||
            (crossings == best_crossings && v == best_vertex &&
             s.key < best_key)))) {
        best = cost;
        best_crossings = crossings;
        best_vertex = v;
        best_slot = slot;
        best_key = s.key;
      }
    }
  }
  if (best == std::numeric_limits<double>::infinity()) return csp;

  csp.found = true;
  csp.lower_bound = best;
  for (std::uint32_t v = static_cast<std::uint32_t>(best_vertex),
                     slot = best_slot;
       v != kNone;) {
    const State& s = tables[v].entries[slot];
    csp.elements.push_back(
        CspElement{v, ClusterId(static_cast<int>(s.key >> 32))});
    v = s.prev_vertex;
    slot = s.prev_slot;
  }
  std::reverse(csp.elements.begin(), csp.elements.end());
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
  std::vector<ChildRequest> children;
  const ClusterId src_cluster = topo_.cluster_of(request.source);
  const ClusterId dst_cluster = topo_.cluster_of(request.destination);

  static obs::Counter& child_requests =
      obs::MetricsRegistry::global().counter("routing.child_requests");
  std::size_t i = 0;
  while (i < csp.elements.size()) {
    // A child covers the maximal run of consecutive elements in one cluster.
    std::size_t j = i;
    while (j + 1 < csp.elements.size() &&
           csp.elements[j + 1].cluster == csp.elements[i].cluster) {
      ++j;
    }
    const ClusterId cluster = csp.elements[i].cluster;

    ChildRequest child;
    child.cluster = cluster;
    std::vector<ServiceId> chain;
    chain.reserve(j - i + 1);
    for (std::size_t k = i; k <= j; ++k) {
      chain.push_back(request.graph.label(csp.elements[k].sg_vertex));
    }
    child.request.graph = ServiceGraph::linear(chain);

    // Child source: the original source proxy for the first child in the
    // source's own cluster, otherwise the border through which the path
    // enters this cluster.
    if (i == 0 && cluster == src_cluster) {
      child.request.source = request.source;
    } else {
      const ClusterId prev =
          (i == 0) ? src_cluster : csp.elements[i - 1].cluster;
      child.request.source = view.border(cluster, prev);
    }
    // Child destination symmetrically.
    if (j + 1 == csp.elements.size() && cluster == dst_cluster) {
      child.request.destination = request.destination;
    } else {
      const ClusterId next = (j + 1 == csp.elements.size())
                                 ? dst_cluster
                                 : csp.elements[j + 1].cluster;
      child.request.destination = view.border(cluster, next);
    }
    ensure(child.request.source.valid() && child.request.destination.valid(),
           "divide: CSP traverses a cluster pair with no surviving border");
    children.push_back(std::move(child));
    i = j + 1;
  }
  child_requests.add(children.size());
  return children;
}

namespace {

/// Append a hop, dropping pure-relay duplicates of the previous proxy.
void append_hop(std::vector<ServiceHop>& hops, const ServiceHop& hop) {
  if (!hops.empty() && hops.back().proxy == hop.proxy) {
    if (hop.is_relay()) return;               // redundant relay
    if (hops.back().is_relay()) {             // upgrade relay to service
      hops.back() = hop;
      return;
    }
  }
  hops.push_back(hop);
}

}  // namespace

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
