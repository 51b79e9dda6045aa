#include "core/framework.h"

#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/shortest_paths.h"
#include "util/require.h"

namespace hfc {

bool builds_multilevel(TopologyScheme scheme, std::size_t proxies) {
  // kAuto's escalation point: the one-level topology's all-cluster-pairs
  // border selection is quadratic in the cluster count and becomes the
  // wall on the way to 1M (DESIGN.md §13).
  constexpr std::size_t kAutoMultiLevelProxies = 100000;
  return scheme == TopologyScheme::kMultiLevel ||
         (scheme == TopologyScheme::kAuto &&
          proxies >= kAutoMultiLevelProxies);
}

std::unique_ptr<HfcFramework> HfcFramework::build(
    const FrameworkConfig& config) {
  HFC_TRACE_SPAN("framework.build");
  obs::MetricsRegistry::global().counter("framework.builds").add(1);
  require(config.proxies >= 2, "HfcFramework: need >= 2 proxies");
  require(config.landmarks >= 2, "HfcFramework: need >= 2 landmarks");

  auto fw = std::unique_ptr<HfcFramework>(new HfcFramework());
  fw->config_ = config;
  const Rng master(config.seed);

  // 1. Underlay: transit-stub physical topology (§6, via [26]).
  Rng topo_rng = master.fork(1);
  fw->underlay_ = generate_transit_stub(
      TransitStubParams::for_total_routers(config.physical_routers), topo_rng);

  // 2. Attachment of landmarks, proxies and clients to stub routers.
  Rng place_rng = master.fork(2);
  PlacementParams placement_params;
  placement_params.proxies = config.proxies;
  placement_params.landmarks = config.landmarks;
  placement_params.clients = config.clients;
  fw->placement_ =
      place_overlay(fw->underlay_, placement_params, place_rng);

  // 3. Distance map via landmarks + coordinates (§3.1). The oracle's
  //    endpoint list is [landmarks..., proxies...]; its truth tier keeps a
  //    bounded row cache instead of materializing all pairs.
  std::vector<RouterId> endpoints = fw->placement_.landmark_routers;
  endpoints.insert(endpoints.end(), fw->placement_.proxy_routers.begin(),
                   fw->placement_.proxy_routers.end());
  LatencyOracle oracle(fw->underlay_.network, std::move(endpoints),
                       config.measurement_noise, master.fork(3),
                       config.distance_cache_rows);
  Rng gnp_rng = master.fork(4);
  fw->distance_map_ =
      build_distance_map(oracle, config.landmarks, config.gnp, gnp_rng);

  // Distance tiers: the coordinate estimate everything downstream decides
  // with, and the lazily derived proxy-pairwise ground truth evaluation
  // reads (bounded LRU of per-proxy Dijkstra rows — no dense matrix).
  fw->coord_service_ = std::make_shared<const CoordDistanceService>(
      fw->distance_map_.proxy_coords);
  fw->proxy_truth_ = std::make_shared<const TruthDistanceService>(
      fw->underlay_.network, fw->placement_.proxy_routers,
      config.distance_cache_rows);

  // 4. Service placement (Table 1: 4-10 services per proxy) and overlay.
  Rng workload_rng = master.fork(5);
  fw->overlay_ = std::make_unique<OverlayNetwork>(
      fw->distance_map_.proxy_coords,
      assign_services(config.proxies, config.workload, workload_rng));

  // 5 + 6. Topology and router (see builds_multilevel).
  fw->multilevel_ = builds_multilevel(config.scheme, config.proxies);
  if (fw->multilevel_) {
    fw->topology_ = std::make_unique<HfcTopology>(
        fw->distance_map_.proxy_coords, config.multilevel);
  } else {
    // Clustering by MST + inconsistent-edge removal (§3.2) and the HFC
    // topology with border selection (§3.3), both querying the
    // coordinate tier.
    Clustering clustering = cluster_nodes(*fw->coord_service_, config.zahn);
    fw->topology_ = std::make_unique<HfcTopology>(
        std::move(clustering), *fw->coord_service_, config.border_selection);
  }
  // The hierarchical router over the aggregate state (§5).
  fw->router_ = std::make_unique<HierarchicalServiceRouter>(
      *fw->overlay_, *fw->topology_, *fw->coord_service_, config.routing);

  // 7. Client endpoint pool: each client's nearest proxy by true delay.
  fw->client_proxies_.reserve(config.clients);
  for (RouterId client : fw->placement_.client_routers) {
    const ShortestPathTree tree = dijkstra(fw->underlay_.network, client);
    double best = std::numeric_limits<double>::infinity();
    NodeId nearest;
    for (std::size_t p = 0; p < fw->placement_.proxy_routers.size(); ++p) {
      const double d = tree.delay_ms[fw->placement_.proxy_routers[p].idx()];
      if (d < best) {
        best = d;
        nearest = NodeId(static_cast<std::int32_t>(p));
      }
    }
    ensure(nearest.valid(), "HfcFramework: client cannot reach any proxy");
    fw->client_proxies_.push_back(nearest);
  }
  return fw;
}

OverlayDistance HfcFramework::estimated_distance() const {
  // Shares ownership of the coordinate tier, so the closure stays valid
  // even if it outlives the framework object itself.
  return [svc = coord_service_](NodeId a, NodeId b) { return (*svc)(a, b); };
}

OverlayDistance HfcFramework::true_distance() const {
  // Note: the truth tier holds a pointer to the framework's underlay, so
  // unlike the estimate this must not outlive the framework.
  return [svc = proxy_truth_](NodeId a, NodeId b) { return (*svc)(a, b); };
}

std::vector<ServiceRequest> HfcFramework::generate_requests(std::size_t count,
                                                            Rng& rng) const {
  const std::vector<NodeId>& pool =
      client_proxies_.empty() ? overlay_->all_nodes() : client_proxies_;
  return make_requests(count, pool, config_.workload, rng);
}

}  // namespace hfc
