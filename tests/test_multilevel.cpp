// Tests for the multi-level HFC extension: hierarchy construction,
// border selection at every level, state accounting, hop paths, and
// recursive routing validated against the flat oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>

#include "env_guard.h"
#include "multilevel/multilevel_hierarchy.h"
#include "multilevel/multilevel_router.h"
#include "routing/brute_force.h"
#include "services/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

/// Four tight 4-node squares arranged as two well-separated super-pairs:
///   squares at (0,0) and (30,0)        -> super-group "west"
///   squares at (1000,0) and (1030,0)   -> super-group "east"
/// With levels=2, Zahn over centroids groups the squares into the two
/// super-groups.
std::vector<Point> two_super_groups() {
  std::vector<Point> pts;
  for (const double base : {0.0, 30.0, 1000.0, 1030.0}) {
    pts.push_back({base, 0});
    pts.push_back({base + 2, 0});
    pts.push_back({base, 2});
    pts.push_back({base + 2, 2});
  }
  return pts;
}

ServicePlacement spread_placement(std::size_t n, std::size_t catalog) {
  ServicePlacement p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = {ServiceId(static_cast<std::int32_t>(i % catalog))};
  }
  return p;
}

TEST(MultiLevelHierarchy, BuildsTwoLevels) {
  const MultiLevelHierarchy h(two_super_groups(), MultiLevelParams{});
  EXPECT_EQ(h.node_count(), 16u);
  EXPECT_EQ(h.levels(), 2u);
  EXPECT_EQ(h.groups_at(1).size(), 4u);  // the four squares
  EXPECT_EQ(h.groups_at(2).size(), 2u);  // west + east
  // Root holds the two super-groups.
  EXPECT_EQ(h.group(h.root()).children.size(), 2u);
  EXPECT_EQ(h.group(h.root()).nodes.size(), 16u);
}

TEST(MultiLevelHierarchy, AncestryIsConsistent) {
  const MultiLevelHierarchy h(two_super_groups(), MultiLevelParams{});
  for (int v = 0; v < 16; ++v) {
    const NodeId node(v);
    const std::size_t leaf = h.leaf_of(node);
    EXPECT_EQ(h.group(leaf).level, 1u);
    EXPECT_TRUE(std::binary_search(h.group(leaf).nodes.begin(),
                                   h.group(leaf).nodes.end(), node));
    const std::size_t super = h.ancestor_of(node, 2);
    EXPECT_EQ(h.group(super).level, 2u);
    EXPECT_EQ(h.group(leaf).parent, super);
    // Nodes 0-7 west, 8-15 east.
    EXPECT_EQ(h.ancestor_of(node, 2),
              h.ancestor_of(NodeId(v < 8 ? 0 : 8), 2));
  }
  EXPECT_NE(h.ancestor_of(NodeId(0), 2), h.ancestor_of(NodeId(8), 2));
}

TEST(MultiLevelHierarchy, BordersAreClosestPairsPerLevel) {
  const std::vector<Point> pts = two_super_groups();
  const MultiLevelHierarchy h(pts, MultiLevelParams{});
  // Check every sibling pair at every parent.
  for (std::size_t g = 0; g < h.group_count(); ++g) {
    const HierarchyGroup& parent = h.group(g);
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const std::size_t a = parent.children[i];
        const std::size_t b = parent.children[j];
        const NodeId ba = h.border(a, b);
        const NodeId bb = h.border(b, a);
        const double chosen = euclidean(pts[ba.idx()], pts[bb.idx()]);
        EXPECT_DOUBLE_EQ(chosen, h.external_length(a, b));
        for (NodeId x : h.group(a).nodes) {
          for (NodeId y : h.group(b).nodes) {
            EXPECT_GE(euclidean(pts[x.idx()], pts[y.idx()]),
                      chosen - 1e-12);
          }
        }
      }
    }
  }
}

TEST(MultiLevelHierarchy, BorderRequiresSiblings) {
  const MultiLevelHierarchy h(two_super_groups(), MultiLevelParams{});
  // A leaf in the west and a leaf in the east are not siblings.
  const std::size_t west_leaf = h.leaf_of(NodeId(0));
  const std::size_t east_leaf = h.leaf_of(NodeId(8));
  EXPECT_THROW((void)h.border(west_leaf, east_leaf), std::invalid_argument);
}

TEST(MultiLevelHierarchy, HopPathDepthBound) {
  const std::vector<Point> pts = two_super_groups();
  const MultiLevelHierarchy h(pts, MultiLevelParams{});
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      const auto path = h.hop_path(NodeId(a), NodeId(b));
      EXPECT_EQ(path.front(), NodeId(a));
      EXPECT_EQ(path.back(), NodeId(b));
      // L = 2 levels: at most 2^(L+1) - 2 = 6 intermediate hops; in this
      // geometry at most 2 border pairs are crossed per level.
      EXPECT_LE(path.size(), 8u);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_NE(path[i], path[i + 1]);
      }
    }
  }
  // Same-leaf pairs are direct.
  EXPECT_EQ(h.hop_path(NodeId(0), NodeId(3)).size(), 2u);
  EXPECT_EQ(h.hop_path(NodeId(5), NodeId(5)).size(), 1u);
}

TEST(MultiLevelHierarchy, CrossSuperPathsCrossTheSuperBorder) {
  const std::vector<Point> pts = two_super_groups();
  const MultiLevelHierarchy h(pts, MultiLevelParams{});
  const std::size_t west = h.ancestor_of(NodeId(0), 2);
  const std::size_t east = h.ancestor_of(NodeId(8), 2);
  const NodeId bw = h.border(west, east);
  const NodeId be = h.border(east, west);
  const auto path = h.hop_path(NodeId(0), NodeId(15));
  EXPECT_NE(std::find(path.begin(), path.end(), bw), path.end());
  EXPECT_NE(std::find(path.begin(), path.end(), be), path.end());
}

TEST(MultiLevelHierarchy, StateCountsBelowFlat) {
  const MultiLevelHierarchy h(two_super_groups(), MultiLevelParams{});
  for (int v = 0; v < 16; ++v) {
    const NodeId node(v);
    EXPECT_LT(h.coordinate_state_count(node), 16u);
    EXPECT_GE(h.coordinate_state_count(node), 4u);  // at least own leaf
    EXPECT_GE(h.service_state_count(node), 4u);
  }
}

TEST(MultiLevelHierarchy, SingleLevelFallsBackToBiLevel) {
  MultiLevelParams params;
  params.levels = 1;
  const MultiLevelHierarchy h(two_super_groups(), params);
  EXPECT_EQ(h.levels(), 1u);
  // Root directly holds the four squares.
  EXPECT_EQ(h.group(h.root()).children.size(), 4u);
}

TEST(MultiLevelHierarchy, RequestingManyLevelsStopsEarly) {
  MultiLevelParams params;
  params.levels = 6;
  const MultiLevelHierarchy h(two_super_groups(), params);
  // After west/east no further coarsening is possible (2 -> 1 group stops
  // at the "no coarsening" or single-group check).
  EXPECT_LE(h.levels(), 3u);
  EXPECT_GE(h.levels(), 2u);
}

TEST(MultiLevelHierarchy, ValidatesInput) {
  EXPECT_THROW(MultiLevelHierarchy({}, MultiLevelParams{}),
               std::invalid_argument);
  MultiLevelParams zero;
  zero.levels = 0;
  EXPECT_THROW(MultiLevelHierarchy(two_super_groups(), zero),
               std::invalid_argument);
}

// ----------------------------------------------------------- routing ----

struct MlWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  MultiLevelHierarchy hierarchy;
  MultiLevelRouter router;

  explicit MlWorld(std::size_t catalog = 4)
      : coords(two_super_groups()),
        net(coords, spread_placement(16, catalog)),
        hierarchy(coords, MultiLevelParams{}),
        router(net, hierarchy, net.coord_distance_fn()) {}
};

TEST(MultiLevelRouter, GroupHostsAggregates) {
  MlWorld w;
  // Service 0 lives on nodes 0,4,8,12 -> in every leaf square.
  for (std::size_t leaf : w.hierarchy.groups_at(1)) {
    EXPECT_TRUE(w.router.group_hosts(leaf, ServiceId(0)));
  }
  EXPECT_TRUE(w.router.group_hosts(w.hierarchy.root(), ServiceId(3)));
  EXPECT_FALSE(w.router.group_hosts(w.hierarchy.root(), ServiceId(9)));
}

TEST(MultiLevelRouter, RoutesAcrossSuperGroups) {
  MlWorld w;
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(15);
  request.graph =
      ServiceGraph::linear({ServiceId(1), ServiceId(2), ServiceId(3)});
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, w.net));
}

TEST(MultiLevelRouter, IntraLeafStaysLocalAndOptimal) {
  MlWorld w;
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(3);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(2)});
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  // Services 1 and 2 exist inside the first square (nodes 1 and 2): the
  // path must stay inside it and match the flat optimum.
  const std::size_t leaf = w.hierarchy.leaf_of(NodeId(0));
  for (const ServiceHop& hop : path.hops) {
    EXPECT_EQ(w.hierarchy.leaf_of(hop.proxy), leaf);
  }
  const ServicePath oracle =
      brute_force_route(request, w.net, w.net.coord_distance_fn(),
                        w.hierarchy.group(leaf).nodes);
  EXPECT_NEAR(path_length(path, w.net.coord_distance_fn()), oracle.cost,
              1e-9);
}

TEST(MultiLevelRouter, UnsatisfiableService) {
  MlWorld w;
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  request.graph = ServiceGraph::linear({ServiceId(9)});
  EXPECT_FALSE(w.router.route(request).found);
}

TEST(MultiLevelRouter, EmptyGraphRelays) {
  MlWorld w;
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(13);
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  for (const ServiceHop& hop : path.hops) EXPECT_TRUE(hop.is_relay());
  EXPECT_EQ(path.hops.front().proxy, NodeId(2));
  EXPECT_EQ(path.hops.back().proxy, NodeId(13));
}

TEST(MultiLevelRouter, NonLinearGraph) {
  MlWorld w;
  ServiceGraph g;
  const std::size_t a = g.add_vertex(ServiceId(1));
  const std::size_t b = g.add_vertex(ServiceId(2));
  const std::size_t c = g.add_vertex(ServiceId(3));
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(a, c);  // allow skipping s2
  ServiceRequest request;
  request.source = NodeId(4);
  request.destination = NodeId(11);
  request.graph = g;
  const ServicePath path = w.router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, w.net));
}

/// Property sweep: multi-level routing is always valid and never beats
/// the unconstrained flat optimum (it routes under topology constraints).
class MultiLevelPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiLevelPropertyTest, ValidAndAboveFlatOptimum) {
  Rng rng(GetParam());
  // Random layered layout: 3 super-areas, each with 2-3 jittered grids.
  std::vector<Point> pts;
  for (int s = 0; s < 3; ++s) {
    const double sx = 5000.0 * s;
    const int squares = rng.uniform_int(2, 3);
    for (int q = 0; q < squares; ++q) {
      const double qx = sx + 200.0 * q;
      for (int r = 0; r < 2; ++r) {
        for (int c = 0; c < 2; ++c) {
          pts.push_back({qx + 2.0 * c + rng.uniform_real(-0.2, 0.2),
                         2.0 * r + rng.uniform_real(-0.2, 0.2)});
        }
      }
    }
  }
  WorkloadParams wp;
  wp.catalog_size = 5;
  wp.services_per_proxy_min = 1;
  wp.services_per_proxy_max = 2;
  Rng wrng = rng.fork(1);
  const OverlayNetwork net(pts, assign_services(pts.size(), wp, wrng));
  const MultiLevelHierarchy hierarchy(pts, MultiLevelParams{});
  const MultiLevelRouter router(net, hierarchy, net.coord_distance_fn());

  wp.request_length_min = 1;
  wp.request_length_max = 3;
  Rng rrng = rng.fork(2);
  for (const ServiceRequest& request :
       make_requests(10, net.all_nodes(), wp, rrng)) {
    const ServicePath path = router.route(request);
    ASSERT_TRUE(path.found);
    EXPECT_TRUE(satisfies(path, request, net));
    const ServicePath oracle = brute_force_route(
        request, net, net.coord_distance_fn(), net.all_nodes());
    EXPECT_GE(path_length(path, net.coord_distance_fn()),
              oracle.cost - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiLevelPropertyTest,
                         ::testing::Values(401, 402, 403, 404, 405, 406));

std::vector<Point> random_cloud(std::size_t n, std::size_t dim,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point p(dim, 0.0);
    for (double& c : p) c = rng.uniform_real(0.0, 100.0);
    pts.push_back(std::move(p));
  }
  return pts;
}

// Bounded-fanout mode (DESIGN.md §13): no group — the virtual root
// included — may exceed the fanout, no leaf may exceed leaf_limit, and
// the leaves must partition the node set.
TEST(BoundedFanout, FanoutAndLeafBoundsHold) {
  const std::vector<Point> pts = random_cloud(500, 3, 771);
  const MultiLevelHierarchy h(pts, MultiLevelParams::bounded(4, 8));
  EXPECT_GE(h.levels(), 2u);
  std::set<NodeId> seen;
  for (std::size_t g = 0; g < h.group_count(); ++g) {
    const HierarchyGroup& group = h.group(g);
    EXPECT_LE(group.children.size(), 4u) << "group " << g;
    if (group.level == 1) {
      EXPECT_LE(group.nodes.size(), 8u) << "leaf " << g;
      for (NodeId v : group.nodes) {
        EXPECT_TRUE(seen.insert(v).second) << "node in two leaves";
      }
    }
  }
  EXPECT_EQ(seen.size(), 500u);
  // Ancestry stays consistent across the derived depth.
  for (int v = 0; v < 500; v += 37) {
    std::size_t g = h.leaf_of(NodeId(v));
    for (std::size_t level = 2; level <= h.levels() + 1; ++level) {
      g = h.group(g).parent;
      EXPECT_EQ(h.ancestor_of(NodeId(v), level), g);
    }
    EXPECT_EQ(g, h.root());
  }
}

TEST(BoundedFanout, BordersAreClosestPairsPerLevel) {
  const std::vector<Point> pts = random_cloud(120, 2, 772);
  const MultiLevelHierarchy h(pts, MultiLevelParams::bounded(3, 6));
  for (std::size_t g = 0; g < h.group_count(); ++g) {
    const HierarchyGroup& parent = h.group(g);
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const std::size_t a = parent.children[i];
        const std::size_t b = parent.children[j];
        const NodeId ba = h.border(a, b);
        const NodeId bb = h.border(b, a);
        const double chosen = euclidean(pts[ba.idx()], pts[bb.idx()]);
        EXPECT_DOUBLE_EQ(chosen, h.external_length(a, b));
        for (NodeId x : h.group(a).nodes) {
          for (NodeId y : h.group(b).nodes) {
            EXPECT_GE(euclidean(pts[x.idx()], pts[y.idx()]),
                      chosen - 1e-12);
          }
        }
      }
    }
  }
}

TEST(BoundedFanout, HopPathsConnectAndRouterRoutes) {
  const std::vector<Point> pts = random_cloud(300, 2, 773);
  const MultiLevelHierarchy h(pts, MultiLevelParams::bounded(5, 12));
  Rng rng(774);
  for (std::size_t t = 0; t < 50; ++t) {
    const NodeId a(rng.uniform_int(0, 299));
    const NodeId b(rng.uniform_int(0, 299));
    const auto path = h.hop_path(a, b);
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_NE(path[i], path[i + 1]);
    }
  }

  const OverlayNetwork net(pts, spread_placement(pts.size(), 6));
  const MultiLevelRouter router(net, h, net.coord_distance_fn());
  Rng rrng(775);
  for (std::size_t t = 0; t < 25; ++t) {
    ServiceRequest request;
    request.source = NodeId(rrng.uniform_int(0, 299));
    request.destination = NodeId(rrng.uniform_int(0, 299));
    request.graph =
        ServiceGraph::linear({ServiceId(rrng.uniform_int(0, 5))});
    const ServicePath path = router.route(request);
    ASSERT_TRUE(path.found);
    EXPECT_TRUE(satisfies(path, request, net));
  }
}

TEST(BoundedFanout, DeterministicAcrossThreadCounts) {
  const std::vector<Point> pts = random_cloud(260, 3, 776);
  const MultiLevelParams params = MultiLevelParams::bounded(4, 10);
  const MultiLevelHierarchy serial(pts, params);
  set_global_threads(4);
  const MultiLevelHierarchy threaded(pts, params);
  set_global_threads(0);

  ASSERT_EQ(serial.group_count(), threaded.group_count());
  for (std::size_t g = 0; g < serial.group_count(); ++g) {
    EXPECT_EQ(serial.group(g).children, threaded.group(g).children);
    EXPECT_EQ(serial.group(g).nodes, threaded.group(g).nodes);
    const HierarchyGroup& parent = serial.group(g);
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const std::size_t a = parent.children[i];
        const std::size_t b = parent.children[j];
        EXPECT_EQ(serial.border(a, b), threaded.border(a, b));
        EXPECT_EQ(serial.external_length(a, b), threaded.external_length(a, b));
      }
    }
  }
}

TEST(BoundedFanout, ValidatesParams) {
  const std::vector<Point> pts = random_cloud(40, 2, 777);
  EXPECT_THROW(MultiLevelHierarchy(pts, MultiLevelParams::bounded(1, 8)),
               std::invalid_argument);
  EXPECT_THROW(MultiLevelHierarchy(pts, MultiLevelParams::bounded(4, 0)),
               std::invalid_argument);
}

// ------------------------------------------- group-local pipeline ----
// DESIGN.md §14: building with the group-local construction pipeline
// must yield a hierarchy byte-identical to the single global sweep —
// same groups, same borders, same external-length doubles — for any
// thread count, in both construction modes. The HFC_ML_PAR_MIN_N floor
// selects the path: above n keeps the global sweep, 2 forces the
// pipeline.

void expect_same_hierarchy(const MultiLevelHierarchy& a,
                           const MultiLevelHierarchy& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.levels(), b.levels());
  ASSERT_EQ(a.group_count(), b.group_count());
  EXPECT_EQ(a.root(), b.root());
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    EXPECT_EQ(a.group(g).level, b.group(g).level) << "group " << g;
    EXPECT_EQ(a.group(g).parent, b.group(g).parent) << "group " << g;
    EXPECT_EQ(a.group(g).children, b.group(g).children) << "group " << g;
    EXPECT_EQ(a.group(g).nodes, b.group(g).nodes) << "group " << g;
    const HierarchyGroup& parent = a.group(g);
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const std::size_t x = parent.children[i];
        const std::size_t y = parent.children[j];
        EXPECT_EQ(a.border(x, y), b.border(x, y));
        EXPECT_EQ(a.border(y, x), b.border(y, x));
        // Exact double equality: same BCP, same euclidean() rounding.
        EXPECT_EQ(a.external_length(x, y), b.external_length(x, y));
      }
    }
  }
  for (std::size_t v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.leaf_of(NodeId(static_cast<int>(v))),
              b.leaf_of(NodeId(static_cast<int>(v))));
  }
}

/// Parameterized by spatial index kind; the k-d tree is the only one.
class GroupPipelineHierarchyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(GroupPipelineHierarchyTest, BoundedFanoutMatchesGlobalSweep) {
  EnvGuard spatial_floor("HFC_SPATIAL_MIN_N", "2");
  EnvGuard group("HFC_ML_PAR_GROUP", "64");
  const std::vector<Point> pts = random_cloud(620, 3, 901);

  const MultiLevelParams params = MultiLevelParams::bounded(4, 48);
  const MultiLevelHierarchy global = [&] {
    EnvGuard global_sweep("HFC_ML_PAR_MIN_N", kAboveAnyN);
    return MultiLevelHierarchy(pts, params);
  }();

  EnvGuard par_floor("HFC_ML_PAR_MIN_N", "2");
  set_global_threads(1);
  const MultiLevelHierarchy serial(pts, params);
  set_global_threads(4);
  const MultiLevelHierarchy threaded(pts, params);
  set_global_threads(0);

  expect_same_hierarchy(global, serial);
  expect_same_hierarchy(global, threaded);
}

TEST_P(GroupPipelineHierarchyTest, FlatLevelsMatchGlobalSweep) {
  EnvGuard spatial_floor("HFC_SPATIAL_MIN_N", "2");
  EnvGuard group("HFC_ML_PAR_GROUP", "64");
  const std::vector<Point> pts = random_cloud(400, 2, 902);

  const MultiLevelParams params;  // legacy fixed-levels construction
  const MultiLevelHierarchy global = [&] {
    EnvGuard global_sweep("HFC_ML_PAR_MIN_N", kAboveAnyN);
    return MultiLevelHierarchy(pts, params);
  }();

  EnvGuard par_floor("HFC_ML_PAR_MIN_N", "2");
  set_global_threads(1);
  const MultiLevelHierarchy serial(pts, params);
  set_global_threads(4);
  const MultiLevelHierarchy threaded(pts, params);
  set_global_threads(0);

  expect_same_hierarchy(global, serial);
  expect_same_hierarchy(global, threaded);
}

INSTANTIATE_TEST_SUITE_P(IndexKinds, GroupPipelineHierarchyTest,
                         ::testing::Values("kdtree"));

}  // namespace
}  // namespace hfc
