#include "multilevel/multilevel_router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "util/require.h"

namespace hfc {

namespace {

/// Append `nodes` to a path as relay hops.
void append_relays(std::vector<ServiceHop>& hops,
                   const std::vector<NodeId>& nodes) {
  for (NodeId n : nodes) append_hop(hops, ServiceHop{n, ServiceId{}});
}

}  // namespace

MultiLevelRouter::MultiLevelRouter(const OverlayNetwork& net,
                                   const MultiLevelHierarchy& hierarchy,
                                   OverlayDistance decision_distance)
    : net_(net),
      hierarchy_(hierarchy),
      distance_(std::move(decision_distance)),
      flat_(net, distance_) {
  require(static_cast<bool>(distance_), "MultiLevelRouter: null distance");
  require(hierarchy_.node_count() == net_.size(),
          "MultiLevelRouter: hierarchy/network size mismatch");
  const auto t_sync = std::chrono::steady_clock::now();
  capability_.resize(hierarchy_.group_count());
  for (std::size_t g = 0; g < hierarchy_.group_count(); ++g) {
    capability_[g] = net_.aggregate_services(hierarchy_.group(g).nodes);
  }
  obs::MetricsRegistry::global()
      .counter("construct.router_sync_us")
      .add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t_sync)
              .count()));
}

MultiLevelRouter::MultiLevelRouter(const OverlayNetwork& net,
                                   const MultiLevelHierarchy& hierarchy,
                                   const DistanceService& decision_distance)
    : MultiLevelRouter(net, hierarchy,
                       OverlayDistance(decision_distance.fn())) {}

bool MultiLevelRouter::group_hosts(std::size_t group,
                                   ServiceId service) const {
  require(group < capability_.size(), "MultiLevelRouter: bad group");
  return std::binary_search(capability_[group].begin(),
                            capability_[group].end(), service);
}

ServicePath MultiLevelRouter::route(const ServiceRequest& request) const {
  require(request.source.valid() && request.source.idx() < net_.size(),
          "MultiLevelRouter: bad source");
  require(request.destination.valid() &&
              request.destination.idx() < net_.size(),
          "MultiLevelRouter: bad destination");
  // Non-linear graphs are resolved by the top-level group CSP, which picks
  // one configuration; the recursion below then deals in linear chains.
  ServicePath path = route_in_group_graph(hierarchy_.root(), request.source,
                                          request.destination, request.graph);
  if (path.found) path.cost = path_length(path, distance_);
  return path;
}

ServicePath MultiLevelRouter::route_in_group_graph(
    std::size_t group, NodeId entry, NodeId exit,
    const ServiceGraph& graph) const {
  // Base cases: nothing to place, or a fully-connected leaf cluster.
  if (graph.empty()) {
    ServicePath path;
    path.found = true;
    append_relays(path.hops, hierarchy_.hop_path(entry, exit));
    return path;
  }
  const HierarchyGroup& g = hierarchy_.group(group);
  if (g.level == 1) {
    ServiceRequest leaf_request;
    leaf_request.source = entry;
    leaf_request.destination = exit;
    leaf_request.graph = graph;
    return flat_.route_within(leaf_request, g.nodes);
  }

  // --- map: candidates per SG vertex = children whose aggregate hosts it.
  std::vector<std::vector<std::size_t>> candidates(graph.size());
  for (std::size_t v = 0; v < graph.size(); ++v) {
    for (std::size_t child : g.children) {
      if (group_hosts(child, graph.label(v))) candidates[v].push_back(child);
    }
    if (candidates[v].empty()) return ServicePath{};  // unsatisfiable here
  }
  const std::size_t child_level = hierarchy_.group(g.children.front()).level;
  const CspEnds<std::size_t> ends{entry, exit,
                                  hierarchy_.ancestor_of(entry, child_level),
                                  hierarchy_.ancestor_of(exit, child_level)};

  // --- the group-level CSP with internal lower bounds (the §5.1
  // refinement at this level of the tree), divided into runs per child.
  const CspSearch<std::size_t> csp =
      search_csp(graph, ends, candidates, hierarchy_, distance_, true);
  if (!csp.found) return ServicePath{};
  const std::vector<UnitRun<std::size_t>> runs = dissect_runs(
      csp.steps, &CspStep<std::size_t>::unit, graph, ends, hierarchy_);

  // --- conquer: each run recursively inside its child, joined by hop
  // paths one level down from the entry and to the exit where the first
  // or last run lies in another child.
  std::vector<ServiceHop> hops;
  append_hop(hops, ServiceHop{entry, ServiceId{}});
  if (runs.front().unit != ends.source_unit) {
    const NodeId out = hierarchy_.border(ends.source_unit, runs.front().unit);
    append_relays(hops, hierarchy_.hop_path(entry, out));
  }
  for (const UnitRun<std::size_t>& run : runs) {
    const ServicePath part = route_in_group_graph(
        run.unit, run.entry, run.exit, ServiceGraph::linear(run.chain));
    ensure(part.found, "MultiLevelRouter: child segment failed despite "
                       "aggregate capability");
    for (const ServiceHop& hop : part.hops) append_hop(hops, hop);
  }
  if (runs.back().unit != ends.destination_unit) {
    const NodeId in =
        hierarchy_.border(ends.destination_unit, runs.back().unit);
    append_relays(hops, hierarchy_.hop_path(in, exit));
  }
  append_hop(hops, ServiceHop{exit, ServiceId{}});

  ServicePath path;
  path.found = true;
  path.hops = std::move(hops);
  return path;
}

}  // namespace hfc
