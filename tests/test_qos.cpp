// Tests for the QoS extension (paper §7): capacity filters, optimistic vs
// pessimistic aggregation, crankback, and session admission/release.
#include <gtest/gtest.h>

#include "cluster/zahn.h"
#include "qos/qos_manager.h"
#include "routing/hierarchical_router.h"
#include "util/rng.h"

namespace hfc {
namespace {

/// Two separated squares; service 0 hosted by one proxy per cluster,
/// service 1 hosted everywhere.
struct QosWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  Clustering clustering;
  HfcTopology topo;
  HierarchicalServiceRouter router;

  QosWorld()
      : coords({{0, 0}, {2, 0}, {0, 2}, {2, 2},          // cluster A
                {100, 0}, {102, 0}, {100, 2}, {102, 2}}),  // cluster B
        net(coords, make_placement()),
        clustering(cluster_points(coords)),
        topo(clustering, net.coord_distance_fn()),
        router(net, topo, net.coord_distance_fn()) {}

  static ServicePlacement make_placement() {
    ServicePlacement p(8);
    for (std::size_t i = 0; i < 8; ++i) p[i] = {ServiceId(1)};
    p[0] = {ServiceId(0), ServiceId(1)};  // provider of S0 in cluster A
    p[4] = {ServiceId(0), ServiceId(1)};  // provider of S0 in cluster B
    return p;
  }

  [[nodiscard]] ClusterId cluster_a() const {
    return topo.cluster_of(NodeId(0));
  }
  [[nodiscard]] ClusterId cluster_b() const {
    return topo.cluster_of(NodeId(4));
  }
};

TEST(QosManager, ResidualAndAggregates) {
  QosWorld w;
  std::vector<double> caps{10, 1, 1, 1, 5, 1, 1, 1};
  const QosManager optimistic(w.net, w.topo, caps,
                              CapacityAggregation::kOptimistic);
  const QosManager pessimistic(w.net, w.topo, caps,
                               CapacityAggregation::kPessimistic);
  EXPECT_DOUBLE_EQ(optimistic.residual(NodeId(0)), 10.0);
  EXPECT_DOUBLE_EQ(optimistic.aggregate_residual(w.cluster_a()), 10.0);
  EXPECT_DOUBLE_EQ(pessimistic.aggregate_residual(w.cluster_a()), 1.0);
  EXPECT_DOUBLE_EQ(optimistic.aggregate_residual(w.cluster_b()), 5.0);
}

TEST(QosManager, ValidatesInput) {
  QosWorld w;
  EXPECT_THROW(QosManager(w.net, w.topo, {1.0},
                          CapacityAggregation::kOptimistic),
               std::invalid_argument);
  EXPECT_THROW(QosManager(w.net, w.topo,
                          std::vector<double>(8, -1.0),
                          CapacityAggregation::kOptimistic),
               std::invalid_argument);
}

TEST(QosManager, AdmissionReservesAndReleaseRestores) {
  QosWorld w;
  QosManager qos(w.net, w.topo, std::vector<double>(8, 3.0),
                 CapacityAggregation::kOptimistic);
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  const auto admission = qos.admit(w.router, request, 2.0);
  ASSERT_TRUE(admission.admitted);
  EXPECT_TRUE(satisfies(admission.path, request, w.net));
  // S0 runs on node 0 (the only in-cluster provider): 2 units reserved.
  EXPECT_DOUBLE_EQ(qos.residual(NodeId(0)), 1.0);
  EXPECT_DOUBLE_EQ(qos.reserved_total(), 2.0);
  qos.release(admission.path, 2.0);
  EXPECT_DOUBLE_EQ(qos.residual(NodeId(0)), 3.0);
  EXPECT_DOUBLE_EQ(qos.reserved_total(), 0.0);
}

TEST(QosManager, ExhaustedProviderForcesRemotePlacement) {
  QosWorld w;
  std::vector<double> caps(8, 10.0);
  QosManager qos(w.net, w.topo, caps, CapacityAggregation::kOptimistic);
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(0)});

  // Drain the local S0 provider (node 0) with five 2-unit sessions.
  for (int i = 0; i < 5; ++i) {
    const auto a = qos.admit(w.router, request, 2.0);
    ASSERT_TRUE(a.admitted);
  }
  EXPECT_DOUBLE_EQ(qos.residual(NodeId(0)), 0.0);

  // The next session must use the remote provider (node 4 in cluster B).
  const auto remote = qos.admit(w.router, request, 2.0);
  ASSERT_TRUE(remote.admitted);
  bool used_remote = false;
  for (const ServiceHop& hop : remote.path.hops) {
    if (!hop.is_relay()) {
      EXPECT_EQ(hop.proxy, NodeId(4));
      used_remote = true;
    }
  }
  EXPECT_TRUE(used_remote);
}

TEST(QosManager, OptimisticAggregationCranksBack) {
  QosWorld w;
  // Cluster A has high capacity on a non-provider, so the optimistic
  // aggregate (max) passes the cluster filter while the actual S0
  // provider (node 0) is too weak: the router must crank back to B.
  std::vector<double> caps{1, 50, 50, 50, 10, 1, 1, 1};
  QosManager qos(w.net, w.topo, caps, CapacityAggregation::kOptimistic);
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  const auto admission = qos.admit(w.router, request, 5.0);
  ASSERT_TRUE(admission.admitted);
  EXPECT_GE(admission.crankbacks, 1u);
  for (const ServiceHop& hop : admission.path.hops) {
    if (!hop.is_relay()) {
      EXPECT_EQ(hop.proxy, NodeId(4));
    }
  }
}

TEST(QosManager, PessimisticAggregationRejectsWithoutCrankback) {
  QosWorld w;
  // Same capacities: pessimistic aggregation (min = 1 in both clusters)
  // rejects at the CSP level even though node 4 could serve the session.
  std::vector<double> caps{1, 50, 50, 50, 10, 1, 1, 1};
  QosManager qos(w.net, w.topo, caps, CapacityAggregation::kPessimistic);
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  const auto admission = qos.admit(w.router, request, 5.0);
  EXPECT_FALSE(admission.admitted);
  EXPECT_EQ(admission.crankbacks, 0u);
}

TEST(QosManager, InfeasibleEverywhereIsRejected) {
  QosWorld w;
  QosManager qos(w.net, w.topo, std::vector<double>(8, 1.0),
                 CapacityAggregation::kOptimistic);
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  const auto admission = qos.admit(w.router, request, 2.0);
  EXPECT_FALSE(admission.admitted);
  EXPECT_DOUBLE_EQ(qos.reserved_total(), 0.0);
}

TEST(QosManager, ZeroDemandIsUnconstrained) {
  QosWorld w;
  QosManager qos(w.net, w.topo, std::vector<double>(8, 0.0),
                 CapacityAggregation::kPessimistic);
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(6);
  request.graph = ServiceGraph::linear({ServiceId(1)});
  const auto admission = qos.admit(w.router, request, 0.0);
  EXPECT_TRUE(admission.admitted);
}

// Node-list claims must be strictly ascending: the streaming layer hands
// over sorted, deduplicated claims, and the manager applies them as is.
TEST(QosManager, NodeClaimsMustBeStrictlyAscending) {
  QosWorld w;
  QosManager qos(w.net, w.topo, std::vector<double>(8, 3.0),
                 CapacityAggregation::kOptimistic);
  const std::vector<NodeId> duplicated{NodeId(1), NodeId(1), NodeId(4)};
  const std::vector<NodeId> unsorted{NodeId(4), NodeId(1)};
  for (const auto* claim : {&duplicated, &unsorted}) {
    EXPECT_THROW((void)qos.feasible_nodes(*claim, 1.0), std::invalid_argument);
    EXPECT_THROW(qos.reserve_nodes(*claim, 1.0), std::invalid_argument);
    EXPECT_THROW(qos.release_nodes(*claim, 1.0), std::invalid_argument);
  }
  EXPECT_DOUBLE_EQ(qos.reserved_total(), 0.0);

  const std::vector<NodeId> claim{NodeId(1), NodeId(4), NodeId(6)};
  ASSERT_TRUE(qos.feasible_nodes(claim, 2.0));
  qos.reserve_nodes(claim, 2.0);
  EXPECT_DOUBLE_EQ(qos.reserved_total(), 6.0);
  EXPECT_DOUBLE_EQ(qos.residual(NodeId(4)), 1.0);
  EXPECT_FALSE(qos.feasible_nodes(claim, 2.0));
  qos.release_nodes(claim, 2.0);
  EXPECT_DOUBLE_EQ(qos.reserved_total(), 0.0);
  EXPECT_DOUBLE_EQ(qos.residual(NodeId(4)), 3.0);
}

TEST(RoutingFilters, ClusterFilterPrunesCsp) {
  QosWorld w;
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  RoutingFilters filters;
  const ClusterId a = w.cluster_a();
  filters.cluster_ok = [a](ClusterId c, ServiceId) { return c != a; };
  const auto result = w.router.route_with_crankback(request, filters);
  ASSERT_TRUE(result.path.found);
  // S0 must be placed in cluster B despite the longer path.
  for (const ServiceHop& hop : result.path.hops) {
    if (!hop.is_relay()) {
      EXPECT_EQ(w.topo.cluster_of(hop.proxy), w.cluster_b());
    }
  }
}

TEST(RoutingFilters, CrankbackBudgetExhaustion) {
  QosWorld w;
  ServiceRequest request;
  request.source = NodeId(1);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  RoutingFilters filters;
  // Every concrete node is infeasible but clusters look fine: each attempt
  // excludes one cluster until none remain.
  filters.node_ok = [](NodeId, ServiceId) { return false; };
  const auto result = w.router.route_with_crankback(request, filters, 8);
  EXPECT_FALSE(result.path.found);
  EXPECT_LE(result.crankbacks, 8u);
  EXPECT_GE(result.crankbacks, 1u);
}

}  // namespace
}  // namespace hfc
