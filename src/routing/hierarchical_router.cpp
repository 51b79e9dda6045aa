#include "routing/hierarchical_router.h"

#include <algorithm>
#include <utility>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/require.h"

namespace hfc {

HierarchicalServiceRouter::HierarchicalServiceRouter(
    const OverlayNetwork& net, const HfcTopology& topo,
    OverlayDistance decision_distance, HierarchicalRoutingParams params)
    : PipelineRouter(net, std::move(decision_distance)),
      topo_(topo),
      params_(params) {
  HFC_TRACE_SPAN("routing.derive_capabilities");
  require(topo_.node_count() == net_.size(),
          "HierarchicalServiceRouter: topology/network size mismatch");
  // Derive SCT_C: the aggregate service set of a cluster is the union of
  // its members' sets (paper §4, footnote 5).
  capabilities_.resize(topo_.cluster_count());
  synced_gen_.resize(topo_.cluster_count());
  for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
    const ClusterId id(static_cast<int>(c));
    capabilities_[c] = net_.aggregate_services(topo_.members(id));
    synced_gen_[c] = topo_.generation(id);
  }
}

void HierarchicalServiceRouter::sync_with_topology() {
  static obs::Counter& refreshes =
      obs::MetricsRegistry::global().counter("routing.sct_refreshes");
  const std::size_t count = topo_.cluster_count();
  capabilities_.resize(count);
  synced_gen_.resize(count, static_cast<std::uint64_t>(-1));
  for (std::size_t c = 0; c < count; ++c) {
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
  require(cluster.valid() && cluster.idx() < capabilities_.size(),
          "set_cluster_capability: bad cluster");
  require(std::is_sorted(services.begin(), services.end()),
          "set_cluster_capability: services must be sorted");
  capabilities_[cluster.idx()] = std::move(services);
}

const std::vector<ServiceId>& HierarchicalServiceRouter::cluster_capability(
    ClusterId cluster) const {
  require(cluster.valid() && cluster.idx() < capabilities_.size(),
          "HierarchicalServiceRouter::cluster_capability: bad cluster");
  return capabilities_[cluster.idx()];
}

std::vector<ClusterId> HierarchicalServiceRouter::clusters_hosting(
    ServiceId service) const {
  std::vector<ClusterId> out;
  for (std::size_t c = 0; c < capabilities_.size(); ++c) {
    if (std::binary_search(capabilities_[c].begin(),
                           capabilities_[c].end(), service)) {
      out.push_back(ClusterId(static_cast<int>(c)));
    }
  }
  return out;
}

HierarchicalServiceRouter::Csp HierarchicalServiceRouter::compute_csp(
    const ServiceRequest& request, const RoutingFilters& filters,
    const Exclusions& exclusions) const {
  require_endpoints(request);
  return ConquerPipeline(*this, filters)
      .search(root(), request, exclusions);
}

std::vector<HierarchicalServiceRouter::ChildRequest>
HierarchicalServiceRouter::divide(const Csp& csp, const ServiceRequest& request,
                                  const RoutingFilters& filters) const {
  require(csp.found, "divide: CSP not found");
  return ConquerPipeline(*this, filters)
      .divide(root(), csp, request);
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
                             .conquer(root(), children, request);
  if (result.path.found) result.path.cost = path_length(result.path, distance_);
  return result;
}

}  // namespace hfc
