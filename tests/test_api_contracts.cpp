// API-contract tests: validation and error paths of the public entry
// points that the behavioural suites do not exercise.
#include <gtest/gtest.h>

#include "cluster/zahn.h"
#include "overlay/hfc_topology.h"
#include "qos/qos_manager.h"
#include "oracle/brute_force.h"
#include "routing/flat_router.h"
#include "routing/hierarchical_router.h"
#include "sim/state_protocol.h"
#include "distance/latency_oracle.h"
#include "topology/shortest_paths.h"
#include "util/rng.h"

namespace hfc {
namespace {

using oracle::brute_force_route;

struct TinyWorld {
  std::vector<Point> coords{{0, 0}, {2, 0}, {100, 0}, {102, 0}};
  OverlayNetwork net;
  Clustering clustering;
  HfcTopology topo;

  TinyWorld()
      : net(coords, make_placement()),
        clustering(cluster_points(coords)),
        topo(clustering, net.coord_distance_fn()) {}

  static ServicePlacement make_placement() {
    ServicePlacement p(4);
    for (std::size_t i = 0; i < 4; ++i) {
      p[i] = {ServiceId(static_cast<std::int32_t>(i))};
    }
    return p;
  }
};

TEST(ApiContracts, FlatRouterRejectsNullDistanceAndBadEndpoints) {
  TinyWorld w;
  EXPECT_THROW(FlatServiceRouter(w.net, nullptr), std::invalid_argument);
  const FlatServiceRouter router(w.net, w.net.coord_distance_fn());
  ServiceRequest request;
  request.source = NodeId(99);
  request.destination = NodeId(0);
  EXPECT_THROW((void)router.route(request), std::invalid_argument);
  request.source = NodeId(0);
  request.destination = NodeId{};
  EXPECT_THROW((void)router.route(request), std::invalid_argument);
}

TEST(ApiContracts, HierarchicalRouterValidation) {
  TinyWorld w;
  EXPECT_THROW(HierarchicalServiceRouter(w.net, w.topo, nullptr),
               std::invalid_argument);
  HierarchicalServiceRouter router(w.net, w.topo,
                                   w.net.coord_distance_fn());
  EXPECT_THROW(
      router.set_cluster_capability(ClusterId(99), {}),
      std::invalid_argument);
  EXPECT_THROW(
      router.set_cluster_capability(ClusterId(0),
                                    {ServiceId(3), ServiceId(1)}),
      std::invalid_argument);  // unsorted
  ServiceRequest request;
  request.source = NodeId{};
  request.destination = NodeId(0);
  EXPECT_THROW((void)router.route(request), std::invalid_argument);
}

// Every routing entry point checks its endpoints as route() does, before
// they reach the clustering (which would throw std::out_of_range).
TEST(ApiContracts, HierarchicalEntryPointsRejectBadEndpoints) {
  TinyWorld w;
  const HierarchicalServiceRouter router(w.net, w.topo,
                                         w.net.coord_distance_fn());
  const auto all_up = [](NodeId) { return true; };
  ServiceRequest bad_source;
  bad_source.source = NodeId(100000);
  bad_source.destination = NodeId(3);
  bad_source.graph = ServiceGraph::linear({ServiceId(1)});
  ServiceRequest bad_destination = bad_source;
  bad_destination.source = NodeId(0);
  bad_destination.destination = NodeId{};
  for (const ServiceRequest& request : {bad_source, bad_destination}) {
    EXPECT_THROW((void)router.compute_csp(request), std::invalid_argument);
    EXPECT_THROW((void)router.route_with_crankback(request, RoutingFilters{}),
                 std::invalid_argument);
    EXPECT_THROW((void)router.route_degraded(request, all_up),
                 std::invalid_argument);
  }
}

TEST(ApiContracts, HfcTopologyRejectsNullDistance) {
  TinyWorld w;
  EXPECT_THROW(HfcTopology(w.clustering, nullptr), std::invalid_argument);
}

TEST(ApiContracts, HierarchicalRouterRejectsSizeMismatch) {
  TinyWorld w;
  // A clustering over a different node count must be rejected.
  const std::vector<Point> other{{0, 0}, {1, 1}};
  const HfcTopology small_topo(cluster_points(other),
                               [](NodeId, NodeId) { return 1.0; });
  EXPECT_THROW(HierarchicalServiceRouter(w.net, small_topo,
                                         w.net.coord_distance_fn()),
               std::invalid_argument);
}

TEST(ApiContracts, BruteForceRejectsNullDistance) {
  TinyWorld w;
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  EXPECT_THROW(
      (void)brute_force_route(request, w.net, nullptr, w.net.all_nodes()),
      std::invalid_argument);
}

TEST(ApiContracts, StateProtocolValidation) {
  TinyWorld w;
  EXPECT_THROW(StateProtocolSim(w.net, w.topo, nullptr),
               std::invalid_argument);
  StateProtocolParams bad;
  bad.rounds = 0;
  EXPECT_THROW(
      StateProtocolSim(w.net, w.topo, w.net.coord_distance_fn(), bad),
      std::invalid_argument);
  bad = StateProtocolParams{};
  bad.local_period_ms = 0.0;
  EXPECT_THROW(
      StateProtocolSim(w.net, w.topo, w.net.coord_distance_fn(), bad),
      std::invalid_argument);
  StateProtocolSim sim(w.net, w.topo, w.net.coord_distance_fn());
  EXPECT_THROW((void)sim.tables(NodeId(99)), std::invalid_argument);
}

TEST(ApiContracts, QosFiltersRejectNegativeDemand) {
  TinyWorld w;
  QosManager qos(w.net, w.topo, std::vector<double>(4, 1.0),
                 CapacityAggregation::kOptimistic);
  EXPECT_THROW((void)qos.filters(-1.0), std::invalid_argument);
  EXPECT_THROW((void)qos.residual(NodeId(9)), std::invalid_argument);
  ServicePath unfound;
  EXPECT_THROW(qos.release(unfound, 1.0), std::invalid_argument);
  EXPECT_THROW(qos.reserve(unfound, 1.0), std::invalid_argument);
}

TEST(ApiContracts, MultiLevelRouterValidation) {
  TinyWorld w;
  const HfcTopology hierarchy(w.coords, MultiLevelParams{});
  EXPECT_THROW(HierarchicalServiceRouter(w.net, hierarchy, nullptr),
               std::invalid_argument);
  const HierarchicalServiceRouter router(w.net, hierarchy,
                                         w.net.coord_distance_fn());
  ServiceRequest request;
  request.source = NodeId(55);
  request.destination = NodeId(0);
  EXPECT_THROW((void)router.route(request), std::invalid_argument);
  EXPECT_THROW((void)router.group_hosts(ClusterId(999), ServiceId(0)),
               std::invalid_argument);
}

TEST(ApiContracts, LatencyOracleRejectsNegativeNoise) {
  PhysicalNetwork net;
  const RouterId a = net.add_router(RouterKind::kStub);
  const RouterId b = net.add_router(RouterKind::kStub);
  net.add_link(a, b, 1.0);
  EXPECT_THROW(LatencyOracle(net, {a, b}, -0.1, Rng(1)),
               std::invalid_argument);
}

TEST(ApiContracts, CrankbackWithNullFiltersBehavesLikeRoute) {
  TinyWorld w;
  const HierarchicalServiceRouter router(w.net, w.topo,
                                         w.net.coord_distance_fn());
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(3);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(2)});
  const auto result = router.route_with_crankback(request, RoutingFilters{});
  const ServicePath plain = router.route(request);
  ASSERT_TRUE(result.path.found);
  EXPECT_EQ(result.crankbacks, 0u);
  EXPECT_EQ(result.path.hops, plain.hops);
}

}  // namespace
}  // namespace hfc
