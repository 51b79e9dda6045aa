// Cross-module integration tests: the simulated §4 protocol feeding the
// §5 router, relay-load measurement, failure injection (stale and partial
// state), and end-to-end QoS admission over a built framework.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.h"
#include "core/framework.h"
#include "dynamic/dynamic_overlay.h"
#include "oracle/full_rebuild.h"
#include "qos/qos_manager.h"
#include "sim/state_protocol.h"

namespace hfc {
namespace {

FrameworkConfig small_config(std::uint64_t seed) {
  FrameworkConfig config;
  config.physical_routers = 300;
  config.proxies = 70;
  config.landmarks = 8;
  config.clients = 15;
  config.seed = seed;
  return config;
}

TEST(Integration, ProtocolFedRouterMatchesDerivedState) {
  // Run the state protocol on the event sim, inject its converged SCT_C
  // into a fresh router, and check it routes identically to the router
  // whose aggregates were derived straight from the placement.
  const auto fw = HfcFramework::build(small_config(31));
  StateProtocolSim protocol(fw->overlay(), fw->topology(),
                            fw->true_distance());
  protocol.run();
  ASSERT_TRUE(protocol.fully_converged());

  HierarchicalServiceRouter protocol_router(
      fw->overlay(), fw->topology(), fw->estimated_distance());
  // Overwrite every cluster aggregate with what the protocol delivered to
  // some arbitrary proxy (node 0).
  const ProxyStateTables& tables = protocol.tables(NodeId(0));
  for (std::size_t c = 0; c < fw->topology().cluster_count(); ++c) {
    const ClusterId cluster(static_cast<int>(c));
    protocol_router.set_cluster_capability(cluster,
                                           tables.sct_c.at(cluster));
  }

  Rng rng(32);
  for (const ServiceRequest& request : fw->generate_requests(15, rng)) {
    EXPECT_EQ(protocol_router.route(request).to_string(),
              fw->route(request).to_string());
  }
}

TEST(Integration, StaleStateRoutesToWithdrawnProvider) {
  // Failure injection: a cluster advertises a service it no longer has
  // (stale aggregate). The router builds a CSP trusting the stale SCT_C;
  // conquer then fails for that child because no concrete provider
  // exists. This is exactly the failure mode crankback repairs.
  const auto fw = HfcFramework::build(small_config(33));
  const HfcTopology& topo = fw->topology();

  // Find a service hosted in exactly one cluster, then claim another
  // cluster also hosts it (stale entry) and make the real one vanish.
  HierarchicalServiceRouter router(fw->overlay(), topo,
                                   fw->estimated_distance());
  ServiceId victim;
  for (std::int32_t s = 0;
       s < static_cast<std::int32_t>(fw->config().workload.catalog_size);
       ++s) {
    if (router.clusters_hosting(ServiceId(s)).size() >= 1) {
      victim = ServiceId(s);
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  const std::vector<ClusterId> hosting = router.clusters_hosting(victim);
  // Pick a cluster that does NOT host the victim service.
  ClusterId impostor;
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    const ClusterId candidate(static_cast<int>(c));
    if (std::find(hosting.begin(), hosting.end(), candidate) ==
        hosting.end()) {
      impostor = candidate;
      break;
    }
  }
  ASSERT_TRUE(impostor.valid());
  // Stale state: impostor claims the victim service; real hosts withdraw.
  std::vector<ServiceId> lie{victim};
  router.set_cluster_capability(impostor, lie);
  for (ClusterId real : hosting) {
    router.set_cluster_capability(real, {});
  }

  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  request.graph = ServiceGraph::linear({victim});
  // Plain route fails at conquer (the CSP promise is unfulfillable).
  EXPECT_FALSE(router.route(request).found);
  // Crankback also ends not-found (nothing feasible remains) but cleanly.
  const auto result = router.route_with_crankback(request, RoutingFilters{});
  EXPECT_FALSE(result.path.found);
  EXPECT_GE(result.crankbacks, 1u);
}

TEST(Integration, RelayLoadSharesAreSane) {
  const auto fw = HfcFramework::build(small_config(35));
  const RelayLoadSample load = measure_relay_load(*fw, 50, 36);
  EXPECT_GT(load.max_share, 0.0);
  EXPECT_LE(load.max_share, 1.0);
  EXPECT_GE(load.top5_share, load.max_share);
  EXPECT_LE(load.top5_share, 1.0);
  EXPECT_GT(load.loaded_proxies, 0u);
  EXPECT_LE(load.loaded_proxies, fw->overlay().size());
}

TEST(Integration, SingleHubConcentratesLoad) {
  FrameworkConfig hub_config = small_config(37);
  hub_config.border_selection = BorderSelection::kSingleHub;
  const auto hub_fw = HfcFramework::build(hub_config);
  const auto pair_fw = HfcFramework::build(small_config(37));
  const RelayLoadSample hub_load = measure_relay_load(*hub_fw, 80, 38);
  const RelayLoadSample pair_load = measure_relay_load(*pair_fw, 80, 38);
  // One hub per cluster funnels all transit traffic: strictly more
  // concentrated than closest-pair borders (paper §3 load balancing).
  EXPECT_GT(hub_load.top5_share, pair_load.top5_share);
}

TEST(Integration, QosAdmissionOnFramework) {
  const auto fw = HfcFramework::build(small_config(39));
  QosManager qos(fw->overlay(), fw->topology(),
                 std::vector<double>(fw->overlay().size(), 6.0),
                 CapacityAggregation::kOptimistic);
  Rng rng(40);
  const auto requests = fw->generate_requests(60, rng);
  std::vector<ServicePath> admitted;
  for (const ServiceRequest& request : requests) {
    const auto a = qos.admit(fw->router(), request, 2.0);
    if (a.admitted) {
      EXPECT_TRUE(satisfies(a.path, request, fw->overlay()));
      admitted.push_back(a.path);
    }
  }
  EXPECT_FALSE(admitted.empty());
  // Residuals never negative.
  for (NodeId p : fw->overlay().all_nodes()) {
    EXPECT_GE(qos.residual(p), -1e-9);
  }
  // Releasing everything restores a clean slate.
  for (const ServicePath& path : admitted) qos.release(path, 2.0);
  EXPECT_NEAR(qos.reserved_total(), 0.0, 1e-9);
}

TEST(Integration, ProtocolConvergesOnChurnedTopology) {
  // After churn reshapes the clustering, the §4 protocol still converges
  // on a dense rebuild of the dynamic overlay's active set.
  const auto fw = HfcFramework::build(small_config(43));
  ServicePlacement placement;
  for (NodeId p : fw->overlay().all_nodes()) {
    const auto services = fw->overlay().services_at(p);
    placement.emplace_back(services.begin(), services.end());
  }
  DynamicHfcOverlay overlay(fw->distance_map().proxy_coords, placement,
                            fw->config().zahn);
  Rng rng(44);
  for (int i = 0; i < 12; ++i) {
    NodeId victim;
    do {
      victim = NodeId(static_cast<int>(
          rng.pick_index(overlay.universe_size())));
    } while (!overlay.is_active(victim));
    overlay.deactivate(victim);
    if (i % 2 == 0) overlay.activate(victim);
  }
  const oracle::FullRebuild view(overlay);
  StateProtocolSim protocol(view.network(), view.topology(),
                            view.network().coord_distance_fn());
  protocol.run();
  EXPECT_TRUE(protocol.fully_converged());
}

TEST(Integration, NonlinearWorkloadEndToEnd) {
  FrameworkConfig config = small_config(41);
  config.workload.nonlinear_fraction = 1.0;
  const auto fw = HfcFramework::build(config);
  Rng rng(42);
  std::size_t nonlinear_seen = 0;
  for (const ServiceRequest& request : fw->generate_requests(20, rng)) {
    if (!request.graph.is_linear()) ++nonlinear_seen;
    const ServicePath path = fw->route(request);
    ASSERT_TRUE(path.found);
    EXPECT_TRUE(satisfies(path, request, fw->overlay()));
  }
  EXPECT_GT(nonlinear_seen, 0u);
}

}  // namespace
}  // namespace hfc
