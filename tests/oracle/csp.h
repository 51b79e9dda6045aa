// Reference cluster-level service path (CSP) search.
//
// This is the per-state relaxation `HierarchicalServiceRouter::compute_csp`
// used before its cluster-major kernel: one `std::unordered_map` of
// (cluster, entry) labels per SG vertex, every (state x candidate cluster)
// transition priced and offered on its own through the live-link view and
// the distance functor. It reads only public API: `cluster_capability`, a
// `LiveLinkView` over the topology and the decision distance. The kernel
// must agree with it bit for bit: same `found`, same `lower_bound` double,
// same steps, including exact ties (DESIGN.md §9 (b)).
//
// `route_with_crankback` repeats the router's crankback loop with this CSP
// in place of the kernel's, using the router's own divide and conquer
// steps, so whole routes can be compared.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "overlay/hfc_topology.h"
#include "routing/hierarchical_router.h"
#include "routing/live_links.h"

namespace hfc::oracle {

namespace csp_detail {

constexpr std::uint64_t state_key(ClusterId cluster, NodeId entry) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
              cluster.value()))
          << 32) |
         static_cast<std::uint32_t>(entry.value());
}

struct Label {
  double cost = std::numeric_limits<double>::infinity();
  std::uint32_t crossings = 0;
  std::size_t prev_vertex = static_cast<std::size_t>(-1);
  std::uint64_t prev_key = 0;
};

}  // namespace csp_detail

/// The CSP `router` should return for `request` under `filters` and
/// `exclusions`. `distance` and `use_internal_lower_bounds` must be the
/// router's decision distance and parameter.
inline HierarchicalServiceRouter::Csp compute_csp(
    const HierarchicalServiceRouter& router, const HfcTopology& topo,
    const OverlayDistance& distance, bool use_internal_lower_bounds,
    const ServiceRequest& request, const RoutingFilters& filters = {},
    const HierarchicalServiceRouter::Exclusions& exclusions = {}) {
  using csp_detail::Label;
  using csp_detail::state_key;
  HierarchicalServiceRouter::Csp csp;
  const ServiceGraph& graph = request.graph;
  const ClusterId src_cluster = topo.cluster_of(request.source);
  const ClusterId dst_cluster = topo.cluster_of(request.destination);
  const bool lb = use_internal_lower_bounds;
  const LiveLinkView<ClusterId, HfcTopology> view(topo, topo.distance(),
                                                  filters.node_up);
  const auto border = [&view](ClusterId from, ClusterId toward) {
    return view.link(from, toward).exit;
  };

  if (graph.empty()) {
    if (src_cluster == dst_cluster) {
      csp.found = true;
      csp.lower_bound = distance(request.source, request.destination);
      return csp;
    }
    if (!view.link(src_cluster, dst_cluster).found) return csp;
    const NodeId bu = border(src_cluster, dst_cluster);
    const NodeId bv = border(dst_cluster, src_cluster);
    double total = view.link(src_cluster, dst_cluster).length;
    if (request.source != bu) total += distance(request.source, bu);
    if (request.destination != bv) total += distance(bv, request.destination);
    csp.found = true;
    csp.lower_bound = total;
    return csp;
  }

  const auto transition_cost = [&](ClusterId c, NodeId entry,
                                   ClusterId next) {
    if (!view.link(c, next).found) {
      return std::numeric_limits<double>::infinity();
    }
    const NodeId exit_border = border(c, next);
    double cost = view.link(c, next).length;
    if (lb && entry != exit_border) cost += distance(entry, exit_border);
    return cost;
  };

  std::vector<std::unordered_map<std::uint64_t, Label>> tables(graph.size());

  const auto excluded = [&exclusions](ClusterId c, ServiceId s) {
    for (const auto& [ec, es] : exclusions) {
      if (ec == c && es == s) return true;
    }
    return false;
  };
  std::vector<std::vector<ClusterId>> candidates(graph.size());
  for (std::size_t v = 0; v < graph.size(); ++v) {
    const ServiceId s = graph.label(v);
    for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
      const ClusterId id(static_cast<std::int32_t>(c));
      const std::vector<ServiceId>& hosted = router.cluster_capability(id);
      if (!std::binary_search(hosted.begin(), hosted.end(), s)) continue;
      if (filters.cluster_ok && !filters.cluster_ok(id, s)) continue;
      if (excluded(id, s)) continue;
      candidates[v].push_back(id);
    }
    if (candidates[v].empty()) return csp;
  }

  for (std::size_t v : graph.sources()) {
    for (ClusterId c : candidates[v]) {
      double cost = 0.0;
      std::uint32_t crossings = 0;
      NodeId entry = request.source;
      if (c != src_cluster) {
        cost = transition_cost(src_cluster, request.source, c);
        if (cost == std::numeric_limits<double>::infinity()) continue;
        entry = border(c, src_cluster);
        crossings = 1;
      }
      Label& label = tables[v][state_key(c, entry)];
      if (cost < label.cost) {
        label = Label{cost, crossings, static_cast<std::size_t>(-1), 0};
      }
    }
  }

  for (std::size_t u : graph.topological_order()) {
    for (std::size_t v : graph.successors(u)) {
      for (const auto& [key, label] : tables[u]) {
        const ClusterId c(static_cast<int>(key >> 32));
        const NodeId entry(static_cast<int>(key & 0xffffffffULL));
        for (ClusterId next : candidates[v]) {
          double cost = label.cost;
          std::uint32_t crossings = label.crossings;
          NodeId next_entry = entry;
          if (next != c) {
            cost += transition_cost(c, entry, next);
            if (cost == std::numeric_limits<double>::infinity()) continue;
            next_entry = border(next, c);
            ++crossings;
          }
          Label& target = tables[v][state_key(next, next_entry)];
          if (cost < target.cost ||
              (cost == target.cost &&
               (crossings < target.crossings ||
                (crossings == target.crossings &&
                 target.prev_vertex == u && key < target.prev_key)))) {
            target = Label{cost, crossings, u, key};
          }
        }
      }
    }
  }

  double best = std::numeric_limits<double>::infinity();
  std::uint32_t best_crossings = 0;
  std::size_t best_vertex = 0;
  std::uint64_t best_key = 0;
  for (std::size_t v : graph.sinks()) {
    for (const auto& [key, label] : tables[v]) {
      const ClusterId c(static_cast<int>(key >> 32));
      const NodeId entry(static_cast<int>(key & 0xffffffffULL));
      double cost = label.cost;
      std::uint32_t crossings = label.crossings;
      if (c == dst_cluster) {
        if (lb && entry != request.destination) {
          cost += distance(entry, request.destination);
        }
      } else {
        cost += transition_cost(c, entry, dst_cluster);
        if (cost == std::numeric_limits<double>::infinity()) continue;
        ++crossings;
        if (lb) {
          const NodeId dst_entry = border(dst_cluster, c);
          if (dst_entry != request.destination) {
            cost += distance(dst_entry, request.destination);
          }
        }
      }
      if (cost < best ||
          (cost == best &&
           (crossings < best_crossings ||
            (crossings == best_crossings && v == best_vertex &&
             key < best_key)))) {
        best = cost;
        best_crossings = crossings;
        best_vertex = v;
        best_key = key;
      }
    }
  }
  if (best == std::numeric_limits<double>::infinity()) return csp;

  csp.found = true;
  csp.lower_bound = best;
  for (std::size_t v = best_vertex; v != static_cast<std::size_t>(-1);) {
    csp.steps.push_back(CspStep<ClusterId>{
        v, ClusterId(static_cast<int>(best_key >> 32))});
    const Label& label = tables[v].at(best_key);
    v = label.prev_vertex;
    best_key = label.prev_key;
  }
  std::reverse(csp.steps.begin(), csp.steps.end());
  return csp;
}

/// `HierarchicalServiceRouter::route_with_crankback` with the oracle CSP:
/// the same exclusion accumulation and budget, through the router's own
/// divide and conquer under the same filters.
inline HierarchicalServiceRouter::RouteResult route_with_crankback(
    const HierarchicalServiceRouter& router, const HfcTopology& topo,
    const OverlayDistance& distance, bool use_internal_lower_bounds,
    const ServiceRequest& request, const RoutingFilters& filters,
    std::size_t max_crankbacks = 8) {
  HierarchicalServiceRouter::RouteResult result;
  HierarchicalServiceRouter::Exclusions exclusions;
  for (std::size_t attempt = 0; attempt <= max_crankbacks; ++attempt) {
    const HierarchicalServiceRouter::Csp csp =
        compute_csp(router, topo, distance, use_internal_lower_bounds,
                    request, filters, exclusions);
    if (!csp.found) return result;
    const auto children = router.divide(csp, request, filters);
    auto conquered =
        router.conquer_filtered(csp, children, request, filters);
    if (conquered.path.found) {
      result.path = std::move(conquered.path);
      return result;
    }
    if (conquered.infeasible.empty()) return result;
    ++result.crankbacks;
    exclusions.insert(exclusions.end(), conquered.infeasible.begin(),
                      conquered.infeasible.end());
  }
  return result;
}

}  // namespace hfc::oracle
