// Tests for src/routing: service DAG solving, flat routing (validated
// against the brute-force oracle), path expansion and path validation.
#include <gtest/gtest.h>

#include <cmath>

#include "overlay/mesh_topology.h"
#include "oracle/brute_force.h"
#include "routing/flat_router.h"
#include "routing/path_expansion.h"
#include "routing/service_dag.h"
#include "routing/service_path.h"
#include "services/workload.h"
#include "util/rng.h"

namespace hfc {
namespace {

using oracle::brute_force_route;

// ---------------------------------------------------------------- DAG ----

TEST(ServiceDag, HandComputedOptimum) {
  // Locations on a line: 0 --- 10 --- 20. Source at 0, destination at 20.
  // SG: s0 -> s1. s0 available at {10, 20}, s1 at {0, 20}.
  // Options (src=0, dst=20):
  //   s0@10,s1@0 : 10 + 10 + 20 = 40
  //   s0@10,s1@20: 10 + 10 + 0  = 20  <- optimal
  //   s0@20,s1@0 : 20 + 20 + 20 = 60
  //   s0@20,s1@20: 20 + 0 + 0   = 20  <- tie
  ServiceGraph g = ServiceGraph::linear({ServiceId(0), ServiceId(1)});
  ServiceDagProblem problem;
  problem.graph = &g;
  problem.candidates = {{10, 20}, {0, 20}};
  problem.source_location = 0;
  problem.destination_location = 20;
  problem.distance = [](int a, int b) {
    return std::abs(static_cast<double>(a - b));
  };
  const DagSolution s = solve_service_dag(problem);
  ASSERT_TRUE(s.found);
  EXPECT_DOUBLE_EQ(s.cost, 20.0);
  ASSERT_EQ(s.assignments.size(), 2u);
  EXPECT_EQ(s.assignments[0].sg_vertex, 0u);
  EXPECT_EQ(s.assignments[1].sg_vertex, 1u);
}

TEST(ServiceDag, EmptyGraphIsDirectHop) {
  ServiceGraph g;
  ServiceDagProblem problem;
  problem.graph = &g;
  problem.source_location = 3;
  problem.destination_location = 9;
  problem.distance = [](int a, int b) {
    return std::abs(static_cast<double>(a - b));
  };
  const DagSolution s = solve_service_dag(problem);
  ASSERT_TRUE(s.found);
  EXPECT_DOUBLE_EQ(s.cost, 6.0);
  EXPECT_TRUE(s.assignments.empty());
}

TEST(ServiceDag, UnsatisfiableWhenNoCandidates) {
  ServiceGraph g = ServiceGraph::linear({ServiceId(0), ServiceId(1)});
  ServiceDagProblem problem;
  problem.graph = &g;
  problem.candidates = {{1}, {}};  // s1 has no provider
  problem.source_location = 0;
  problem.destination_location = 0;
  problem.distance = [](int, int) { return 1.0; };
  EXPECT_FALSE(solve_service_dag(problem).found);
}

TEST(ServiceDag, NonLinearPicksCheapestConfiguration) {
  // Figure 2(b) shape: s0 -> s1 -> s2, s3 -> s1, s3 -> s2. Make the short
  // configuration s3 -> s2 the cheap one.
  ServiceGraph g;
  const std::size_t v0 = g.add_vertex(ServiceId(0));
  const std::size_t v1 = g.add_vertex(ServiceId(1));
  const std::size_t v2 = g.add_vertex(ServiceId(2));
  const std::size_t v3 = g.add_vertex(ServiceId(3));
  g.add_edge(v0, v1);
  g.add_edge(v1, v2);
  g.add_edge(v3, v1);
  g.add_edge(v3, v2);
  ServiceDagProblem problem;
  problem.graph = &g;
  problem.candidates = {{50}, {60}, {5}, {2}};  // s3@2, s2@5 near endpoints
  problem.source_location = 0;
  problem.destination_location = 10;
  problem.distance = [](int a, int b) {
    return std::abs(static_cast<double>(a - b));
  };
  const DagSolution s = solve_service_dag(problem);
  ASSERT_TRUE(s.found);
  // 0 -> 2 (s3) -> 5 (s2) -> 10 = 2 + 3 + 5 = 10.
  EXPECT_DOUBLE_EQ(s.cost, 10.0);
  ASSERT_EQ(s.assignments.size(), 2u);
  EXPECT_EQ(s.assignments[0].sg_vertex, v3);
  EXPECT_EQ(s.assignments[1].sg_vertex, v2);
}

TEST(ServiceDag, ValidatesInputs) {
  ServiceDagProblem problem;
  problem.distance = [](int, int) { return 0.0; };
  EXPECT_THROW((void)solve_service_dag(problem), std::invalid_argument);
  ServiceGraph g = ServiceGraph::linear({ServiceId(0)});
  problem.graph = &g;
  problem.candidates = {};  // wrong arity
  EXPECT_THROW((void)solve_service_dag(problem), std::invalid_argument);
}

// ------------------------------------------------------ flat routing ----

/// A small random overlay: n proxies on a plane, services from a small
/// catalog so the brute-force oracle stays tractable.
struct SmallWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  SmallWorld(std::size_t n, std::size_t catalog, Rng& rng)
      : coords(make_coords(n, rng)),
        net(coords, make_placement(n, catalog, rng)) {}

  static std::vector<Point> make_coords(std::size_t n, Rng& rng) {
    std::vector<Point> pts;
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform_real(0, 100), rng.uniform_real(0, 100)});
    }
    return pts;
  }
  static ServicePlacement make_placement(std::size_t n, std::size_t catalog,
                                         Rng& rng) {
    WorkloadParams params;
    params.catalog_size = catalog;
    params.services_per_proxy_min = 1;
    params.services_per_proxy_max = 2;
    return assign_services(n, params, rng);
  }
};

class FlatVsOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatVsOracleTest, FlatRouterIsOptimal) {
  Rng rng(GetParam());
  SmallWorld world(12, 6, rng);
  const OverlayDistance dist = world.net.coord_distance_fn();
  const FlatServiceRouter router(world.net, dist);

  WorkloadParams wp;
  wp.catalog_size = 6;
  wp.request_length_min = 2;
  wp.request_length_max = 4;
  wp.nonlinear_fraction = 0.3;
  const auto requests =
      make_requests(10, world.net.all_nodes(), wp, rng);
  for (const ServiceRequest& request : requests) {
    const ServicePath flat = router.route(request);
    const ServicePath oracle =
        brute_force_route(request, world.net, dist, world.net.all_nodes());
    ASSERT_EQ(flat.found, oracle.found);
    if (flat.found) {
      EXPECT_NEAR(flat.cost, oracle.cost, 1e-9);
      EXPECT_TRUE(satisfies(flat, request, world.net));
      EXPECT_NEAR(path_length(flat, dist), flat.cost, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatVsOracleTest,
                         ::testing::Values(201, 202, 203, 204, 205, 206, 207,
                                           208, 209, 210));

TEST(FlatRouter, RouteWithinRestrictsCandidates) {
  Rng rng(70);
  SmallWorld world(10, 4, rng);
  const FlatServiceRouter router(world.net,
                                 world.net.coord_distance_fn());
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  // Allowed set without any host of service 0 => not found.
  std::vector<NodeId> no_hosts;
  for (NodeId p : world.net.all_nodes()) {
    if (!world.net.hosts(p, ServiceId(0))) no_hosts.push_back(p);
  }
  EXPECT_FALSE(router.route_within(request, no_hosts).found);
  // With the full set it is found and all service hops are hosts.
  const ServicePath path = router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, world.net));
}

TEST(FlatRouter, UnsatisfiableService) {
  Rng rng(71);
  SmallWorld world(8, 4, rng);
  const FlatServiceRouter router(world.net, world.net.coord_distance_fn());
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  request.graph = ServiceGraph::linear({ServiceId(99)});
  EXPECT_FALSE(router.route(request).found);
}

TEST(FlatRouter, EmptyGraphDirectPath) {
  Rng rng(72);
  SmallWorld world(8, 4, rng);
  const FlatServiceRouter router(world.net, world.net.coord_distance_fn());
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(5);
  const ServicePath path = router.route(request);
  ASSERT_TRUE(path.found);
  ASSERT_EQ(path.hops.size(), 2u);
  EXPECT_DOUBLE_EQ(path.cost,
                   world.net.coord_distance(NodeId(2), NodeId(5)));
}

// --------------------------------------------------- path expansion ----

TEST(PathExpansion, MeshExpansionFollowsEdges) {
  Rng rng(73);
  SmallWorld world(20, 5, rng);
  const OverlayDistance dist = world.net.coord_distance_fn();
  Rng mesh_rng(74);
  const MeshTopology mesh(20, dist, MeshParams{}, mesh_rng);
  const MeshRouting routing = mesh.compute_routing(dist);
  const OverlayDistance mesh_dist = [&routing](NodeId a, NodeId b) {
    return routing.distance(a, b);
  };
  const FlatServiceRouter router(world.net, mesh_dist);

  WorkloadParams wp;
  wp.catalog_size = 5;
  wp.request_length_min = 2;
  wp.request_length_max = 3;
  const auto requests = make_requests(8, world.net.all_nodes(), wp, rng);
  for (const ServiceRequest& request : requests) {
    const ServicePath abstract = router.route(request);
    if (!abstract.found) continue;
    const ServicePath expanded = expand_mesh_path(abstract, routing);
    ASSERT_TRUE(expanded.found);
    // Same services in the same order.
    EXPECT_EQ(expanded.service_sequence(), abstract.service_sequence());
    EXPECT_TRUE(satisfies(expanded, request, world.net));
    // Consecutive distinct hops are mesh edges.
    for (std::size_t i = 0; i + 1 < expanded.hops.size(); ++i) {
      if (expanded.hops[i].proxy != expanded.hops[i + 1].proxy) {
        EXPECT_TRUE(
            mesh.has_edge(expanded.hops[i].proxy, expanded.hops[i + 1].proxy));
      }
    }
    // Expanded length under the estimate equals the abstract cost.
    EXPECT_NEAR(path_length(expanded, dist), abstract.cost, 1e-6);
  }
}

// ---------------------------------------------------- path checking ----

TEST(ServicePath, ToStringFormat) {
  ServicePath path;
  path.found = true;
  path.hops = {ServiceHop{NodeId(0), ServiceId{}},
               ServiceHop{NodeId(4), ServiceId(2)},
               ServiceHop{NodeId(9), ServiceId{}}};
  EXPECT_EQ(path.to_string(), "-/P0, S2/P4, -/P9");
  ServicePath missing;
  EXPECT_EQ(missing.to_string(), "<no path>");
}

TEST(ServicePath, SatisfiesNegativeCases) {
  Rng rng(75);
  SmallWorld world(6, 3, rng);
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  request.graph = ServiceGraph::linear({ServiceId(0)});
  const NodeId host0 = world.net.hosts_of(ServiceId(0)).front();

  ServicePath ok;
  ok.found = true;
  ok.hops = {ServiceHop{NodeId(0), ServiceId{}},
             ServiceHop{host0, ServiceId(0)},
             ServiceHop{NodeId(1), ServiceId{}}};
  EXPECT_TRUE(satisfies(ok, request, world.net));

  ServicePath wrong_source = ok;
  wrong_source.hops.front().proxy = NodeId(2);
  EXPECT_FALSE(satisfies(wrong_source, request, world.net));

  ServicePath wrong_service = ok;
  wrong_service.hops[1].service = ServiceId(1);
  EXPECT_FALSE(satisfies(wrong_service, request, world.net));

  ServicePath missing_service = ok;
  missing_service.hops[1].service = ServiceId{};
  EXPECT_FALSE(satisfies(missing_service, request, world.net));

  ServicePath not_hosted = ok;
  // Find a proxy that does not host service 0.
  for (NodeId p : world.net.all_nodes()) {
    if (!world.net.hosts(p, ServiceId(0))) {
      not_hosted.hops[1].proxy = p;
      break;
    }
  }
  EXPECT_FALSE(satisfies(not_hosted, request, world.net));

  ServicePath not_found;
  EXPECT_FALSE(satisfies(not_found, request, world.net));
}

TEST(ServicePath, PathLengthSumsHops) {
  ServicePath path;
  path.found = true;
  path.hops = {ServiceHop{NodeId(0), ServiceId{}},
               ServiceHop{NodeId(1), ServiceId(0)},
               ServiceHop{NodeId(1), ServiceId(1)},  // same proxy: free
               ServiceHop{NodeId(2), ServiceId{}}};
  const OverlayDistance unit = [](NodeId a, NodeId b) {
    return a == b ? 0.0 : 10.0;
  };
  EXPECT_DOUBLE_EQ(path_length(path, unit), 20.0);
  EXPECT_DOUBLE_EQ(path_length(ServicePath{}, unit), 0.0);
}

// ------------------------------------------------------ brute force ----

TEST(BruteForce, GuardsAgainstBlowUp) {
  Rng rng(76);
  SmallWorld world(12, 2, rng);  // few services => many hosts each
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  std::vector<ServiceId> chain;
  // With a catalog of 2 distinct services a long chain has to repeat them;
  // build the graph manually with ~12 vertices to trip the guard.
  ServiceGraph g;
  for (int i = 0; i < 12; ++i) {
    const std::size_t v = g.add_vertex(ServiceId(i % 2));
    if (v > 0) g.add_edge(v - 1, v);
  }
  request.graph = g;
  EXPECT_THROW((void)brute_force_route(request, world.net,
                                       world.net.coord_distance_fn(),
                                       world.net.all_nodes()),
               std::invalid_argument);
}

}  // namespace
}  // namespace hfc
