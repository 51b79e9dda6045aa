// Tests for the hierarchical service router (§5): CSP computation, divide,
// conquer, validity and optimality-bound invariants, aggregate-state
// honouring, and behaviour against the HFC-constrained flat optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cluster/zahn.h"
#include "overlay/hfc_topology.h"
#include "oracle/brute_force.h"
#include "routing/flat_router.h"
#include "routing/full_state_router.h"
#include "routing/hierarchical_router.h"
#include "routing/path_expansion.h"
#include "services/workload.h"
#include "util/rng.h"

namespace hfc {
namespace {

using oracle::brute_force_route;

/// A paper-Figure-6-style fixture: four well-separated clusters with a
/// hand-placed service catalog S1..S5 (ids 1..5).
///
///   C0 = {0,1,2,3}   at ( 0,  0)   services: P0{1} P1{4} P2{4} P3{1}
///   C1 = {4,5,6,7}   at (60,  0)   services: P4{2} P5{3,4} P6{3} P7{2,4}
///   C2 = {8,9,10}    at (60, 60)   services: P8{5} P9{2} P10{5}
///   C3 = {11,12}     at ( 0, 60)   services: P11{4} P12{1,4}
struct PaperWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  Clustering clustering;
  HfcTopology topo;
  HierarchicalServiceRouter router;

  PaperWorld()
      : coords(make_coords()),
        net(coords, make_placement()),
        clustering(cluster_points(coords)),
        topo(clustering, net.coord_distance_fn()),
        router(net, topo, net.coord_distance_fn()) {}

  static std::vector<Point> make_coords() {
    return {
        {0, 0},   {3, 0},   {0, 3},   {3, 3},    // C0
        {60, 0},  {63, 0},  {60, 3},  {63, 3},   // C1
        {60, 60}, {63, 60}, {60, 63},            // C2
        {0, 60},  {3, 60},                       // C3
    };
  }
  static ServicePlacement make_placement() {
    return {
        {ServiceId(1)}, {ServiceId(4)}, {ServiceId(4)}, {ServiceId(1)},
        {ServiceId(2)}, {ServiceId(3), ServiceId(4)}, {ServiceId(3)},
        {ServiceId(2), ServiceId(4)},
        {ServiceId(5)}, {ServiceId(2)}, {ServiceId(5)},
        {ServiceId(4)}, {ServiceId(1), ServiceId(4)},
    };
  }
};

TEST(PaperWorldFixture, ClustersAsExpected) {
  PaperWorld w;
  ASSERT_EQ(w.topo.cluster_count(), 4u);
  // Nodes grouped as designed.
  EXPECT_EQ(w.topo.cluster_of(NodeId(0)), w.topo.cluster_of(NodeId(3)));
  EXPECT_EQ(w.topo.cluster_of(NodeId(4)), w.topo.cluster_of(NodeId(7)));
  EXPECT_EQ(w.topo.cluster_of(NodeId(8)), w.topo.cluster_of(NodeId(10)));
  EXPECT_EQ(w.topo.cluster_of(NodeId(11)), w.topo.cluster_of(NodeId(12)));
  EXPECT_NE(w.topo.cluster_of(NodeId(0)), w.topo.cluster_of(NodeId(4)));
}

TEST(Hierarchical, ClustersHostingMatchesAggregates) {
  PaperWorld w;
  // S5 only exists in C2; S4 exists in C0, C1, C3 (not C2).
  const auto c_of = [&](NodeId n) { return w.topo.cluster_of(n); };
  const auto s5 = w.router.clusters_hosting(ServiceId(5));
  ASSERT_EQ(s5.size(), 1u);
  EXPECT_EQ(s5[0], c_of(NodeId(8)));
  const auto s4 = w.router.clusters_hosting(ServiceId(4));
  EXPECT_EQ(s4.size(), 3u);
  EXPECT_TRUE(std::count(s4.begin(), s4.end(), c_of(NodeId(1))));
  EXPECT_TRUE(std::count(s4.begin(), s4.end(), c_of(NodeId(5))));
  EXPECT_TRUE(std::count(s4.begin(), s4.end(), c_of(NodeId(11))));
  EXPECT_TRUE(w.router.clusters_hosting(ServiceId(9)).empty());
}

TEST(Hierarchical, PaperStyleRequestRoutes) {
  PaperWorld w;
  // The paper's example: source in C0, chain S1 S2 S3 S4 S5, dest in C2.
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(9);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(2),
                                        ServiceId(3), ServiceId(4),
                                        ServiceId(5)});
  const auto csp = w.router.compute_csp(request);
  ASSERT_TRUE(csp.found);
  ASSERT_EQ(csp.steps.size(), 5u);
  // S1 must be served by C0 or C3, S5 by C2; S2,S3 cannot be in C0/C3.
  const ClusterId c0 = w.topo.cluster_of(NodeId(0));
  const ClusterId c2 = w.topo.cluster_of(NodeId(8));
  const ClusterId c3 = w.topo.cluster_of(NodeId(11));
  EXPECT_TRUE(csp.steps[0].unit == c0 || csp.steps[0].unit == c3);
  EXPECT_EQ(csp.steps[4].unit, c2);

  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, w.net));
  // Lower bound property: the CSP bound never exceeds the realised cost.
  EXPECT_LE(csp.lower_bound, path.cost + 1e-9);
}

TEST(Hierarchical, DivideProducesWellFormedChildren) {
  PaperWorld w;
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(9);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(2),
                                        ServiceId(3), ServiceId(4),
                                        ServiceId(5)});
  const auto csp = w.router.compute_csp(request);
  ASSERT_TRUE(csp.found);
  const auto children = w.router.divide(csp, request);
  ASSERT_GE(children.size(), 2u);

  // Consecutive children live in distinct clusters;
  // every chain service is in the child's cluster aggregate.
  std::size_t total_services = 0;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const auto& child = children[i];
    total_services += child.chain.size();
    if (i + 1 < children.size()) {
      EXPECT_NE(child.unit, children[i + 1].unit);
      // This child's exit is the border toward the next child's cluster.
      EXPECT_EQ(child.exit,
                w.topo.border(child.unit, children[i + 1].unit));
      // The next child's entry is the mirror border.
      EXPECT_EQ(children[i + 1].entry,
                w.topo.border(children[i + 1].unit, child.unit));
    }
    for (ServiceId s : child.chain) {
      const auto hosting = w.router.clusters_hosting(s);
      EXPECT_TRUE(
          std::count(hosting.begin(), hosting.end(), child.unit));
    }
    // Child endpoints belong to the child's cluster (or are the original
    // request endpoints).
    if (child.entry != request.source) {
      EXPECT_EQ(w.topo.cluster_of(child.entry), child.unit);
    }
    if (child.exit != request.destination) {
      EXPECT_EQ(w.topo.cluster_of(child.exit), child.unit);
    }
  }
  EXPECT_EQ(total_services, request.graph.size());

  // First/last child endpoint rules (§5.1 step 3).
  if (children.front().unit == w.topo.cluster_of(request.source)) {
    EXPECT_EQ(children.front().entry, request.source);
  }
  if (children.back().unit == w.topo.cluster_of(request.destination)) {
    EXPECT_EQ(children.back().exit, request.destination);
  }
}

TEST(Hierarchical, HonoursAggregateStateOverrides) {
  PaperWorld w;
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(9);
  request.graph = ServiceGraph::linear({ServiceId(5)});
  ASSERT_TRUE(w.router.route(request).found);
  // Erase S5 from C2's advertised aggregate: the router must now fail even
  // though the placement still hosts it (it routes on SCT_C, not truth).
  const ClusterId c2 = w.topo.cluster_of(NodeId(8));
  w.router.set_cluster_capability(c2, {ServiceId(2)});
  EXPECT_FALSE(w.router.route(request).found);
}

TEST(Hierarchical, EmptyGraphRelaysThroughBorders) {
  PaperWorld w;
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(9);
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.hops.front().proxy, request.source);
  EXPECT_EQ(path.hops.back().proxy, request.destination);
  for (const ServiceHop& hop : path.hops) EXPECT_TRUE(hop.is_relay());
  EXPECT_LE(path.hops.size(), 4u);
}

TEST(Hierarchical, IntraClusterRequestStaysLocal) {
  PaperWorld w;
  ServiceRequest request;
  request.source = NodeId(4);
  request.destination = NodeId(6);
  request.graph = ServiceGraph::linear({ServiceId(2), ServiceId(3)});
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, w.net));
  // All services available in C1, which also contains both endpoints: the
  // path must not leave the cluster.
  const ClusterId c1 = w.topo.cluster_of(NodeId(4));
  for (const ServiceHop& hop : path.hops) {
    EXPECT_EQ(w.topo.cluster_of(hop.proxy), c1);
  }
}

TEST(Hierarchical, SameSourceAndDestination) {
  PaperWorld w;
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(0);
  request.graph = ServiceGraph::linear({ServiceId(4)});
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, w.net));
}

TEST(Hierarchical, NonLinearGraphRoutes) {
  PaperWorld w;
  // Figure 2(b) shape over the fixture's services: s1 -> s4 -> s5 with an
  // alternative source s2 feeding into s4 and skipping to s5.
  ServiceGraph g;
  const std::size_t a = g.add_vertex(ServiceId(1));
  const std::size_t b = g.add_vertex(ServiceId(4));
  const std::size_t c = g.add_vertex(ServiceId(5));
  const std::size_t d = g.add_vertex(ServiceId(2));
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(d, b);
  g.add_edge(d, c);
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(10);
  request.graph = g;
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, w.net));
}

TEST(Hierarchical, LowerBoundsVariantNeverWorseUnbounded) {
  // Both CSP selection modes must produce valid paths; with internal
  // lower bounds the selection metric is better informed.
  PaperWorld w;
  HierarchicalRoutingParams no_lb;
  no_lb.use_internal_lower_bounds = false;
  const HierarchicalServiceRouter router_no_lb(
      w.net, w.topo, w.net.coord_distance_fn(), no_lb);
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(9);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(2),
                                        ServiceId(3), ServiceId(4),
                                        ServiceId(5)});
  const ServicePath with_lb = w.router.route(request);
  const ServicePath without_lb = router_no_lb.route(request);
  ASSERT_TRUE(with_lb.found);
  ASSERT_TRUE(without_lb.found);
  EXPECT_TRUE(satisfies(without_lb, request, w.net));
}

// ------------------------------------------------ randomized sweeps ----

struct RandomWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  Clustering clustering;
  HfcTopology topo;
  HierarchicalServiceRouter router;

  explicit RandomWorld(Rng& rng)
      : coords(make_coords(rng)),
        net(coords, make_placement(coords.size(), rng)),
        clustering(cluster_points(coords)),
        topo(clustering, net.coord_distance_fn()),
        router(net, topo, net.coord_distance_fn()) {}

  static std::vector<Point> make_coords(Rng& rng) {
    // 3-5 jittered-grid blobs => clean clusters of varying sizes.
    std::vector<Point> pts;
    const int blobs = rng.uniform_int(3, 5);
    for (int b = 0; b < blobs; ++b) {
      const double cx = 200.0 * b;
      const double cy = rng.uniform_real(0, 100);
      const int side = rng.uniform_int(2, 3);
      for (int r = 0; r < side; ++r) {
        for (int c = 0; c < side; ++c) {
          pts.push_back({cx + c * 2.0 + rng.uniform_real(-0.3, 0.3),
                         cy + r * 2.0 + rng.uniform_real(-0.3, 0.3)});
        }
      }
    }
    return pts;
  }
  static ServicePlacement make_placement(std::size_t n, Rng& rng) {
    WorkloadParams params;
    params.catalog_size = 6;
    params.services_per_proxy_min = 1;
    params.services_per_proxy_max = 2;
    return assign_services(n, params, rng);
  }
};

class HierarchicalPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HierarchicalPropertyTest, ValidAndBoundedByHfcOptimum) {
  Rng rng(GetParam());
  RandomWorld w(rng);
  const OverlayDistance est = w.net.coord_distance_fn();
  const OverlayDistance hfc_dist = [&w, &est](NodeId a, NodeId b) {
    return w.topo.path_distance(a, b, est);
  };

  WorkloadParams wp;
  wp.catalog_size = 6;
  wp.request_length_min = 1;
  wp.request_length_max = 3;
  wp.nonlinear_fraction = 0.25;
  const auto requests = make_requests(12, w.net.all_nodes(), wp, rng);
  for (const ServiceRequest& request : requests) {
    const ServicePath hier = w.router.route(request);
    // Placement covers the catalog, so every request is satisfiable.
    ASSERT_TRUE(hier.found);
    EXPECT_TRUE(satisfies(hier, request, w.net));

    // The HFC-constrained flat optimum (full global state over the HFC
    // topology) lower-bounds what divide-and-conquer can achieve.
    const ServicePath oracle =
        brute_force_route(request, w.net, hfc_dist, w.net.all_nodes());
    ASSERT_TRUE(oracle.found);
    const double hier_cost = path_length(hier, est);
    EXPECT_GE(hier_cost, oracle.cost - 1e-6);

    // And the CSP lower bound is below the realised cost.
    const auto csp = w.router.compute_csp(request);
    ASSERT_TRUE(csp.found);
    EXPECT_LE(csp.lower_bound, hier_cost + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchicalPropertyTest,
                         ::testing::Values(301, 302, 303, 304, 305, 306, 307,
                                           308, 309, 310));

/// When every service of the request lives in the destination cluster and
/// so do both endpoints, hierarchical == flat intra-cluster optimal.
TEST(Hierarchical, MatchesFlatOptimumWithinOneCluster) {
  PaperWorld w;
  ServiceRequest request;
  request.source = NodeId(5);
  request.destination = NodeId(7);
  request.graph =
      ServiceGraph::linear({ServiceId(2), ServiceId(3), ServiceId(4)});
  const ServicePath hier = w.router.route(request);
  ASSERT_TRUE(hier.found);
  const ServicePath oracle = brute_force_route(
      request, w.net, w.net.coord_distance_fn(),
      w.topo.members(w.topo.cluster_of(request.source)));
  ASSERT_TRUE(oracle.found);
  EXPECT_NEAR(path_length(hier, w.net.coord_distance_fn()), oracle.cost,
              1e-9);
}

TEST(Hierarchical, FullStateRouterMatchesAdHocBaseline) {
  PaperWorld w;
  const OverlayDistance est = w.net.coord_distance_fn();
  const FullStateHfcRouter packaged(w.net, w.topo, est);
  const OverlayDistance hfc_dist = [&w, &est](NodeId a, NodeId b) {
    return w.topo.path_distance(a, b, est);
  };
  const FlatServiceRouter ad_hoc(w.net, hfc_dist);
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(9);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(4),
                                        ServiceId(5)});
  const ServicePath a = packaged.route(request);
  const ServicePath b = expand_hfc_path(ad_hoc.route(request), w.topo);
  ASSERT_TRUE(a.found);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_TRUE(satisfies(a, request, w.net));
}

TEST(Hierarchical, ExpandHfcPathInsertsBorders) {
  PaperWorld w;
  const OverlayDistance est = w.net.coord_distance_fn();
  const OverlayDistance hfc_dist = [&w, &est](NodeId a, NodeId b) {
    return w.topo.path_distance(a, b, est);
  };
  const FlatServiceRouter noagg(w.net, hfc_dist);
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(9);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(5)});
  const ServicePath abstract = noagg.route(request);
  ASSERT_TRUE(abstract.found);
  const ServicePath expanded = expand_hfc_path(abstract, w.topo);
  ASSERT_TRUE(expanded.found);
  EXPECT_TRUE(satisfies(expanded, request, w.net));
  // Consecutive distinct hops never cross clusters without being borders:
  // they are either intra-cluster or a border pair.
  for (std::size_t i = 0; i + 1 < expanded.hops.size(); ++i) {
    const NodeId a = expanded.hops[i].proxy;
    const NodeId b = expanded.hops[i + 1].proxy;
    if (a == b) continue;
    const ClusterId ca = w.topo.cluster_of(a);
    const ClusterId cb = w.topo.cluster_of(b);
    if (ca != cb) {
      EXPECT_EQ(a, w.topo.border(ca, cb));
      EXPECT_EQ(b, w.topo.border(cb, ca));
    }
  }
  // Measured under HFC-constrained estimates, expansion preserves cost.
  EXPECT_NEAR(path_length(expanded, est), abstract.cost, 1e-6);
}

}  // namespace
}  // namespace hfc
