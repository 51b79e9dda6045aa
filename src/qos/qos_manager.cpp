#include "qos/qos_manager.h"

#include <algorithm>
#include <limits>

#include "util/require.h"

namespace hfc {

QosManager::QosManager(const OverlayNetwork& net, const HfcTopology& topo,
                       std::vector<double> capacities,
                       CapacityAggregation aggregation)
    : net_(net),
      topo_(topo),
      capacities_(std::move(capacities)),
      aggregation_(aggregation) {
  require(capacities_.size() == net_.size(),
          "QosManager: one capacity per proxy required");
  require(topo_.node_count() == net_.size(),
          "QosManager: topology/network size mismatch");
  for (double c : capacities_) {
    require(c >= 0.0, "QosManager: negative capacity");
  }
  total_capacity_ = 0.0;
  for (double c : capacities_) total_capacity_ += c;
}

double QosManager::residual(NodeId node) const {
  require(node.valid() && node.idx() < capacities_.size(),
          "QosManager::residual: bad node");
  return capacities_[node.idx()];
}

double QosManager::aggregate_residual(ClusterId cluster) const {
  const std::vector<NodeId>& members = topo_.members(cluster);
  double best = aggregation_ == CapacityAggregation::kOptimistic
                    ? 0.0
                    : std::numeric_limits<double>::infinity();
  for (NodeId m : members) {
    const double r = capacities_[m.idx()];
    best = aggregation_ == CapacityAggregation::kOptimistic
               ? std::max(best, r)
               : std::min(best, r);
  }
  return best;
}

RoutingFilters QosManager::filters(double demand) const {
  require(demand >= 0.0, "QosManager::filters: negative demand");
  RoutingFilters f;
  f.cluster_ok = [this, demand](ClusterId c, ServiceId) {
    return aggregate_residual(c) >= demand;
  };
  f.node_ok = [this, demand](NodeId p, ServiceId) {
    return capacities_[p.idx()] >= demand;
  };
  return f;
}

QosManager::Admission QosManager::admit(
    const HierarchicalServiceRouter& router, const ServiceRequest& request,
    double demand) {
  Admission admission;
  const HierarchicalServiceRouter::RouteResult result =
      router.route_with_crankback(request, filters(demand));
  admission.crankbacks = result.crankbacks;
  if (!result.path.found) return admission;
  admission.admitted = true;
  admission.path = result.path;
  reserve(admission.path, demand);
  return admission;
}

namespace {

/// The distinct proxies running at least one service of the path.
std::vector<NodeId> service_proxies(const ServicePath& path) {
  std::vector<NodeId> out;
  for (const ServiceHop& hop : path.hops) {
    if (!hop.is_relay()) out.push_back(hop.proxy);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

void QosManager::reserve(const ServicePath& path, double demand) {
  require(path.found, "QosManager::reserve: path not found");
  require(demand >= 0.0, "QosManager::reserve: negative demand");
  for (NodeId proxy : service_proxies(path)) {
    capacities_[proxy.idx()] -= demand;
    ensure(capacities_[proxy.idx()] >= -1e-9,
           "QosManager::reserve: reservation drove capacity negative");
  }
}

void QosManager::release(const ServicePath& path, double demand) {
  require(path.found, "QosManager::release: path was never admitted");
  require(demand >= 0.0, "QosManager::release: negative demand");
  for (NodeId proxy : service_proxies(path)) {
    capacities_[proxy.idx()] += demand;
  }
}

namespace {

/// Check a claim list: in range and strictly ascending, so each proxy
/// appears once and no copy or sort is needed to apply it.
void require_claim(const std::vector<NodeId>& nodes, std::size_t n,
                   const char* bad_node, const char* unsorted) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    require(nodes[i].valid() && nodes[i].idx() < n, bad_node);
    require(i == 0 || nodes[i - 1] < nodes[i], unsorted);
  }
}

}  // namespace

bool QosManager::feasible_nodes(const std::vector<NodeId>& nodes,
                                double demand) const {
  require(demand >= 0.0, "QosManager::feasible_nodes: negative demand");
  require_claim(nodes, capacities_.size(),
                "QosManager::feasible_nodes: bad node",
                "QosManager::feasible_nodes: claim not strictly ascending");
  for (NodeId proxy : nodes) {
    if (capacities_[proxy.idx()] < demand) return false;
  }
  return true;
}

void QosManager::reserve_nodes(const std::vector<NodeId>& nodes,
                               double demand) {
  require(demand >= 0.0, "QosManager::reserve_nodes: negative demand");
  require_claim(nodes, capacities_.size(),
                "QosManager::reserve_nodes: bad node",
                "QosManager::reserve_nodes: claim not strictly ascending");
  for (NodeId proxy : nodes) {
    capacities_[proxy.idx()] -= demand;
    ensure(capacities_[proxy.idx()] >= -1e-9,
           "QosManager::reserve_nodes: reservation drove capacity negative");
  }
}

void QosManager::release_nodes(const std::vector<NodeId>& nodes,
                               double demand) {
  require(demand >= 0.0, "QosManager::release_nodes: negative demand");
  require_claim(nodes, capacities_.size(),
                "QosManager::release_nodes: bad node",
                "QosManager::release_nodes: claim not strictly ascending");
  for (NodeId proxy : nodes) capacities_[proxy.idx()] += demand;
}

double QosManager::reserved_total() const {
  double residual_sum = 0.0;
  for (double c : capacities_) residual_sum += c;
  return total_capacity_ - residual_sum;
}

}  // namespace hfc
