#include "sim/transaction.h"

#include <algorithm>

namespace hfc {

RoutingTransaction simulate_routing_transaction(
    const HierarchicalServiceRouter& router, const HfcTopology& topo,
    const ServiceRequest& request, const OverlayDistance& delay) {
  RoutingTransaction txn;
  const auto csp = router.compute_csp(request);
  if (!csp.found) return txn;
  const auto children = router.divide(csp, request);
  txn.child_requests = children.size();

  const NodeId pd = request.destination;
  double slowest = 0.0;
  for (const auto& child : children) {
    // The resolver is the child's exit node: a member of the cluster, so
    // it holds the needed SCT_P. When the resolver is pd itself (the last
    // child, resolved locally), no messages are exchanged.
    const NodeId resolver = child.exit;
    if (resolver == pd) continue;
    txn.control_messages += 2;
    slowest = std::max(slowest,
                       2.0 * topo.path_distance(pd, resolver, delay));
  }
  txn.setup_latency_ms = slowest;
  txn.path = router.conquer(csp, children, request);
  return txn;
}

}  // namespace hfc
