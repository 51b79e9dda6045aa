#include "multilevel/multilevel_router.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "distance/distance_service.h"
#include "obs/metrics.h"
#include "util/require.h"

namespace hfc {

MultiLevelRouter::MultiLevelRouter(const OverlayNetwork& net,
                                   const MultiLevelHierarchy& hierarchy,
                                   OverlayDistance decision_distance)
    : PipelineRouter(net, std::move(decision_distance)),
      hierarchy_(hierarchy) {
  require(hierarchy_.node_count() == net_.size(),
          "MultiLevelRouter: hierarchy/network size mismatch");
  const auto t_sync = std::chrono::steady_clock::now();
  capabilities_.resize(hierarchy_.group_count());
  for (std::size_t g = 0; g < hierarchy_.group_count(); ++g) {
    capabilities_[g] = net_.aggregate_services(hierarchy_.group(g).nodes);
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
  require(group < capabilities_.size(), "MultiLevelRouter: bad group");
  return std::binary_search(capabilities_[group].begin(),
                            capabilities_[group].end(), service);
}

std::size_t MultiLevelRouter::child_holding(std::size_t group,
                                           NodeId node) const {
  return hierarchy_.ancestor_of(
      node, hierarchy_.group(hierarchy_.group(group).children.front()).level);
}

}  // namespace hfc
