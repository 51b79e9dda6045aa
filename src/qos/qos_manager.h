// QoS-aware hierarchical service routing — the paper's §7 future work:
// "How to embed QoS (e.g., network bandwidth, machine load, machine
// volatility) into hierarchical service topologies, and properly
// aggregate those pieces of information into meaningful service routing
// state, are important issues."
//
// Model: every proxy has a machine capacity; a session consumes `demand`
// units on each *distinct* proxy that runs at least one of its services
// (a machine slot per session, not per service instance — this makes the
// per-(node, service) admission filter exact even when the router maps
// several consecutive services onto one proxy). The hierarchical
// level sees one aggregate capacity figure per cluster, computed by a
// configurable aggregation policy:
//   kOptimistic  — the cluster advertises its best member (max residual);
//                  admits aggressively, may need crankback when the CSP's
//                  promise does not hold for a concrete service;
//   kPessimistic — the cluster advertises its worst member (min residual);
//                  never cranks back but rejects sessions the system could
//                  in fact carry.
// This is exactly the precision/state tension the paper discusses for
// topology aggregation (§3, [20]), replayed for QoS state.
//
// `QosManager` implements session admission control on top of
// HierarchicalServiceRouter::route_with_crankback: route under capacity
// filters, then reserve capacity along the chosen path; `release` returns
// it when a session ends.
#pragma once

#include <cstddef>
#include <vector>

#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/hierarchical_router.h"
#include "routing/service_path.h"

namespace hfc {

enum class CapacityAggregation {
  kOptimistic,   ///< advertise max residual capacity over members
  kPessimistic,  ///< advertise min residual capacity over members
};

class QosManager {
 public:
  /// `capacities[p]` is proxy p's total machine capacity. References must
  /// outlive the manager. Throws on size mismatch or negative capacity.
  QosManager(const OverlayNetwork& net, const HfcTopology& topo,
             std::vector<double> capacities,
             CapacityAggregation aggregation);

  [[nodiscard]] double residual(NodeId node) const;
  /// The cluster's advertised aggregate residual under the configured
  /// aggregation policy.
  [[nodiscard]] double aggregate_residual(ClusterId cluster) const;

  /// Feasibility filters for a session that consumes `demand` capacity
  /// units per placed service. The returned filters reference this
  /// manager; keep it alive while routing.
  [[nodiscard]] RoutingFilters filters(double demand) const;

  struct Admission {
    bool admitted = false;
    ServicePath path;
    std::size_t crankbacks = 0;
  };
  /// Route `request` under capacity constraints and, on success, reserve
  /// `demand` units on every proxy per service instance it runs.
  [[nodiscard]] Admission admit(const HierarchicalServiceRouter& router,
                                const ServiceRequest& request, double demand);

  /// Reserve `demand` units on every proxy that runs a service of `path`
  /// (what admit() does after routing succeeds). Exposed so externally
  /// routed paths (e.g. a flat-state reference router) can participate in
  /// the same capacity bookkeeping. Throws if a reservation would drive a
  /// residual negative.
  void reserve(const ServicePath& path, double demand);

  /// Return the capacity a previously admitted path reserved. The path
  /// must have been admitted with the same demand.
  void release(const ServicePath& path, double demand);

  /// Node-list bookkeeping for long-lived tree edges (src/streaming):
  /// a streaming member's uplink consumes `demand` units on every
  /// proxy of `nodes` — relays forward the stream, so unlike the
  /// per-session path API they are not free. `nodes` must be strictly
  /// ascending (each proxy once, the distinct-proxy rule), as the
  /// streaming layer's sorted, deduplicated edge claims are; all three
  /// throw otherwise. `feasible_nodes` is the admission probe: true iff
  /// every proxy still has `demand` residual. `release_nodes` must be
  /// called with the same list that was reserved.
  [[nodiscard]] bool feasible_nodes(const std::vector<NodeId>& nodes,
                                    double demand) const;
  void reserve_nodes(const std::vector<NodeId>& nodes, double demand);
  void release_nodes(const std::vector<NodeId>& nodes, double demand);

  /// Total capacity currently reserved across all proxies.
  [[nodiscard]] double reserved_total() const;

 private:
  const OverlayNetwork& net_;
  const HfcTopology& topo_;
  std::vector<double> capacities_;  ///< residual, mutated by admit/release
  CapacityAggregation aggregation_;
  double total_capacity_ = 0.0;
};

}  // namespace hfc
