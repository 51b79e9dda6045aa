// Tests for the multi-level HFC extension: hierarchy construction,
// border selection at every level, state accounting, hop paths, and
// recursive routing validated against the flat oracle and, at depth 1,
// against HierarchicalServiceRouter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "block_lattice.h"
#include "env_guard.h"
#include "overlay/hfc_topology.h"
#include "oracle/brute_force.h"
#include "routing/hierarchical_router.h"
#include "services/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

using oracle::brute_force_route;

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
  const HfcTopology h(two_super_groups(), MultiLevelParams{});
  EXPECT_EQ(h.node_count(), 16u);
  EXPECT_EQ(h.levels(), 2u);
  EXPECT_EQ(h.groups_at(1).size(), 4u);  // the four squares
  EXPECT_EQ(h.groups_at(2).size(), 2u);  // west + east
  // Root holds the two super-groups.
  EXPECT_EQ(h.group(h.root()).children.size(), 2u);
  std::size_t covered = 0;
  for (const ClusterId g : h.group(h.root()).children) {
    covered += h.members(g).size();
  }
  EXPECT_EQ(covered, 16u);
}

TEST(MultiLevelHierarchy, AncestryIsConsistent) {
  const HfcTopology h(two_super_groups(), MultiLevelParams{});
  for (int v = 0; v < 16; ++v) {
    const NodeId node(v);
    const ClusterId leaf = h.cluster_of(node);
    EXPECT_EQ(h.group(leaf).level, 1u);
    EXPECT_TRUE(std::binary_search(h.members(leaf).begin(),
                                   h.members(leaf).end(), node));
    const ClusterId super = h.ancestor_of(node, 2);
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
  const HfcTopology h(pts, MultiLevelParams{});
  // Check every sibling pair at every parent.
  for (std::size_t g = 0; g < h.group_count(); ++g) {
    const HierarchyGroup& parent = h.group(ClusterId(static_cast<int>(g)));
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const ClusterId a = parent.children[i];
        const ClusterId b = parent.children[j];
        const NodeId ba = h.border(a, b);
        const NodeId bb = h.border(b, a);
        const double chosen = euclidean(pts[ba.idx()], pts[bb.idx()]);
        EXPECT_DOUBLE_EQ(chosen, h.external_length(a, b));
        for (NodeId x : h.members(a)) {
          for (NodeId y : h.members(b)) {
            EXPECT_GE(euclidean(pts[x.idx()], pts[y.idx()]),
                      chosen - 1e-12);
          }
        }
      }
    }
  }
}

TEST(MultiLevelHierarchy, BorderRequiresSiblings) {
  const HfcTopology h(two_super_groups(), MultiLevelParams{});
  // A leaf in the west and a leaf in the east are not siblings.
  const ClusterId west_leaf = h.cluster_of(NodeId(0));
  const ClusterId east_leaf = h.cluster_of(NodeId(8));
  EXPECT_THROW((void)h.border(west_leaf, east_leaf), std::invalid_argument);
}

TEST(MultiLevelHierarchy, HopPathDepthBound) {
  const std::vector<Point> pts = two_super_groups();
  const HfcTopology h(pts, MultiLevelParams{});
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
  const HfcTopology h(pts, MultiLevelParams{});
  const ClusterId west = h.ancestor_of(NodeId(0), 2);
  const ClusterId east = h.ancestor_of(NodeId(8), 2);
  const NodeId bw = h.border(west, east);
  const NodeId be = h.border(east, west);
  const auto path = h.hop_path(NodeId(0), NodeId(15));
  EXPECT_NE(std::find(path.begin(), path.end(), bw), path.end());
  EXPECT_NE(std::find(path.begin(), path.end(), be), path.end());
}

TEST(MultiLevelHierarchy, StateCountsBelowFlat) {
  const HfcTopology h(two_super_groups(), MultiLevelParams{});
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
  const HfcTopology h(two_super_groups(), params);
  EXPECT_EQ(h.levels(), 1u);
  // Root directly holds the four squares.
  EXPECT_EQ(h.group(h.root()).children.size(), 4u);
}

TEST(MultiLevelHierarchy, RequestingManyLevelsStopsEarly) {
  MultiLevelParams params;
  params.levels = 6;
  const HfcTopology h(two_super_groups(), params);
  // After west/east no further coarsening is possible (2 -> 1 group stops
  // at the "no coarsening" or single-group check).
  EXPECT_LE(h.levels(), 3u);
  EXPECT_GE(h.levels(), 2u);
}

TEST(MultiLevelHierarchy, ValidatesInput) {
  EXPECT_THROW(HfcTopology({}, MultiLevelParams{}),
               std::invalid_argument);
  MultiLevelParams zero;
  zero.levels = 0;
  EXPECT_THROW(HfcTopology(two_super_groups(), zero),
               std::invalid_argument);
}

// Incremental maintenance covers one-level topologies built over a
// distance; every mutator refuses a deeper tree, and a one-level tree
// built from coordinates (stored lengths, no distance to repair under).
TEST(MultiLevelHierarchy, MutatorsNeedOneLevel) {
  MultiLevelParams one;
  one.levels = 1;
  for (const MultiLevelParams& params : {MultiLevelParams{}, one}) {
    HfcTopology h(two_super_groups(), params);
    ASSERT_EQ(h.levels(), params.levels);
    const ClusterId a = h.cluster_of(NodeId(0));
    const ClusterId b = h.cluster_of(NodeId(4));
    ASSERT_NE(a, b);
    EXPECT_THROW(h.append_node(), std::invalid_argument);
    EXPECT_THROW(h.on_member_added(NodeId(0), a), std::invalid_argument);
    EXPECT_THROW(h.on_member_removed(NodeId(0)), std::invalid_argument);
    EXPECT_THROW(h.begin_mutation_batch(), std::invalid_argument);
    EXPECT_THROW(h.override_border_pair(a, b, NodeId(0), NodeId(4)),
                 std::invalid_argument);
    EXPECT_EQ(h.members(a).size(), 4u);  // nothing changed
  }
}

// ----------------------------------------------------------- routing ----

struct MlWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  HfcTopology hierarchy;
  HierarchicalServiceRouter router;

  explicit MlWorld(std::size_t catalog = 4)
      : coords(two_super_groups()),
        net(coords, spread_placement(16, catalog)),
        hierarchy(coords, MultiLevelParams{}),
        router(net, hierarchy, net.coord_distance_fn()) {}
};

TEST(MultiLevelRouter, GroupHostsAggregates) {
  MlWorld w;
  // Service 0 lives on nodes 0,4,8,12 -> in every leaf square.
  for (ClusterId leaf : w.hierarchy.groups_at(1)) {
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
  const ClusterId leaf = w.hierarchy.cluster_of(NodeId(0));
  for (const ServiceHop& hop : path.hops) {
    EXPECT_EQ(w.hierarchy.cluster_of(hop.proxy), leaf);
  }
  const ServicePath oracle =
      brute_force_route(request, w.net, w.net.coord_distance_fn(),
                        w.hierarchy.members(leaf));
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

// Crankback happens at the level that failed: with service 1's host in
// the source's square down, the west super-group backs out of that square
// and serves from its other one (node 5); only a spent budget reports the
// whole group to the root.
TEST(MultiLevelRouter, CranksBackInsideTheFailingGroup) {
  MlWorld w;
  ASSERT_EQ(w.hierarchy.levels(), 2u);
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(2);
  request.graph = ServiceGraph::linear({ServiceId(1)});
  const auto up = [](NodeId n) { return n != NodeId(1); };
  const RouteResult result = w.router.route_degraded(request, up);
  ASSERT_TRUE(result.path.found);
  EXPECT_EQ(result.crankbacks, 1u);
  EXPECT_TRUE(satisfies(result.path, request, w.net));
  std::vector<NodeId> servers;
  for (const ServiceHop& hop : result.path.hops) {
    EXPECT_NE(hop.proxy, NodeId(1));
    if (!hop.is_relay()) servers.push_back(hop.proxy);
  }
  EXPECT_EQ(servers, std::vector<NodeId>{NodeId(5)});

  const RouteResult spent = w.router.route_degraded(request, up, 0);
  EXPECT_FALSE(spent.path.found);
  EXPECT_EQ(spent.crankbacks, 1u);
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

std::uint64_t bits_of(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

/// The leaf groups of `h` as a flat clustering: cluster i is the i-th
/// entry of groups_at(1).
Clustering leaf_clustering(const HfcTopology& h) {
  Clustering clustering;
  clustering.assignment.resize(h.node_count());
  for (const ClusterId leaf : h.groups_at(1)) {
    const ClusterId id(static_cast<std::int32_t>(clustering.members.size()));
    for (const NodeId n : h.members(leaf)) {
      clustering.assignment[n.idx()] = id;
    }
    clustering.members.push_back(h.members(leaf));
  }
  return clustering;
}

/// A levels = 1 hierarchy and the flat HFC stack over the same clusters
/// and the same coordinate distance.
struct BiLevelWorld {
  OverlayNetwork net;
  HfcTopology hierarchy;
  HfcTopology topo;
  HierarchicalServiceRouter multilevel;
  HierarchicalServiceRouter flat;

  BiLevelWorld(const std::vector<Point>& coords, ServicePlacement placement,
               const ZahnParams& leaf_zahn)
      : net(coords, std::move(placement)),
        hierarchy(coords, bi_level(leaf_zahn)),
        topo(leaf_clustering(hierarchy), net.coord_distance_fn()),
        multilevel(net, hierarchy, net.coord_distance_fn()),
        flat(net, topo, net.coord_distance_fn()) {}

  static MultiLevelParams bi_level(const ZahnParams& leaf_zahn) {
    MultiLevelParams params;
    params.levels = 1;
    params.leaf_zahn = leaf_zahn;
    return params;
  }

  /// Every border and external length agrees between the two stacks.
  void expect_same_links() const {
    const std::vector<ClusterId>& leaves = hierarchy.groups_at(1);
    ASSERT_EQ(leaves.size(), topo.cluster_count());
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      for (std::size_t j = 0; j < leaves.size(); ++j) {
        if (i == j) continue;
        const ClusterId a(static_cast<std::int32_t>(i));
        const ClusterId b(static_cast<std::int32_t>(j));
        ASSERT_EQ(hierarchy.border(leaves[i], leaves[j]), topo.border(a, b))
            << "border of cluster " << i << " facing " << j;
        ASSERT_EQ(bits_of(hierarchy.external_length(leaves[i], leaves[j])),
                  bits_of(topo.external_length(a, b)))
            << "external length between clusters " << i << " and " << j;
      }
    }
  }

  /// Both routers return the same route, hop for hop and in cost bits.
  void expect_same_routes(const WorkloadParams& params, std::uint64_t seed,
                          std::size_t count) const {
    Rng rng(seed);
    for (const ServiceRequest& request :
         make_requests(count, net.all_nodes(), params, rng)) {
      SCOPED_TRACE(request.graph.to_string());
      const ServicePath want = flat.route(request);
      const ServicePath got = multilevel.route(request);
      ASSERT_EQ(want.found, got.found);
      EXPECT_EQ(want.hops, got.hops);
      EXPECT_EQ(bits_of(want.cost), bits_of(got.cost));
    }
  }

  /// Both routers degrade the same way: under random crash sets that
  /// include the endpoints' stored border pair, route_degraded returns
  /// the same route, cost bits and crankback count.
  void expect_same_degraded(const WorkloadParams& params, std::uint64_t seed,
                            std::size_t count) const {
    Rng rng(seed);
    std::size_t crankbacks = 0;
    for (const ServiceRequest& request :
         make_requests(count, net.all_nodes(), params, rng)) {
      SCOPED_TRACE(request.graph.to_string());
      std::vector<NodeId> crashed = topo.hop_path(request.source,
                                                  request.destination);
      for (const std::size_t i : rng.sample_indices(net.size(),
                                                    net.size() / 8)) {
        crashed.push_back(NodeId(static_cast<std::int32_t>(i)));
      }
      std::sort(crashed.begin(), crashed.end());
      std::erase(crashed, request.source);
      std::erase(crashed, request.destination);
      const auto up = [&crashed](NodeId node) {
        return !std::binary_search(crashed.begin(), crashed.end(), node);
      };
      const RouteResult want = flat.route_degraded(request, up);
      const RouteResult got = multilevel.route_degraded(request, up);
      ASSERT_EQ(want.path.found, got.path.found);
      EXPECT_EQ(want.path.hops, got.path.hops);
      EXPECT_EQ(bits_of(want.path.cost), bits_of(got.path.cost));
      EXPECT_EQ(want.crankbacks, got.crankbacks);
      crankbacks += want.crankbacks;
    }
    EXPECT_GT(crankbacks, 0u);  // the crash sets really forced crankback
  }
};

// At depth 1 the recursive router is the paper's bi-level HFC: the root's
// children are the clusters, and both routers run the one CSP kernel and
// dissection over the same borders. Routes must match exactly, including
// how exact CSP ties break.
TEST(MultiLevelRouter, BiLevelMatchesHierarchicalRouter) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<Point> centers;
    for (int b = 0; b < 8; ++b) {
      centers.push_back({rng.uniform_real(0, 1000), rng.uniform_real(0, 1000)});
    }
    std::vector<Point> coords;
    for (int i = 0; i < 200; ++i) {
      const Point& c = centers[rng.pick_index(centers.size())];
      coords.push_back({c[0] + rng.uniform_real(-25, 25),
                        c[1] + rng.uniform_real(-25, 25)});
    }
    WorkloadParams params;
    params.catalog_size = 10;
    params.services_per_proxy_min = 1;
    params.services_per_proxy_max = 3;
    params.request_length_min = 2;
    params.request_length_max = 6;
    ServicePlacement placement = assign_services(coords.size(), params, rng);
    const BiLevelWorld w(coords, std::move(placement), ZahnParams{});
    ASSERT_GE(w.topo.cluster_count(), 2u);
    w.expect_same_links();
    params.nonlinear_fraction = 0.0;
    w.expect_same_routes(params, seed + 100, 60);
    params.nonlinear_fraction = 0.6;
    w.expect_same_routes(params, seed + 200, 60);
    w.expect_same_degraded(params, seed + 300, 60);
  }
  // The exact-tie lattice of the CSP oracle suite.
  BlockLattice lattice = block_lattice();
  const BiLevelWorld w(lattice.coords, std::move(lattice.placement),
                       ZahnParams{});
  ASSERT_EQ(w.topo.cluster_count(), 16u);
  w.expect_same_links();
  w.expect_same_routes(lattice.workload, 700, 150);
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
  const HfcTopology hierarchy(pts, MultiLevelParams{});
  const HierarchicalServiceRouter router(net, hierarchy,
                                         net.coord_distance_fn());

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
  const HfcTopology h(pts, MultiLevelParams::bounded(4, 8));
  EXPECT_GE(h.levels(), 2u);
  std::set<NodeId> seen;
  for (std::size_t g = 0; g < h.group_count(); ++g) {
    const ClusterId id(static_cast<int>(g));
    const HierarchyGroup& group = h.group(id);
    EXPECT_LE(group.children.size(), 4u) << "group " << g;
    if (group.level == 1) {
      EXPECT_LE(h.members(id).size(), 8u) << "leaf " << g;
      for (NodeId v : h.members(id)) {
        EXPECT_TRUE(seen.insert(v).second) << "node in two leaves";
      }
    }
  }
  EXPECT_EQ(seen.size(), 500u);
  // Ancestry stays consistent across the derived depth.
  for (int v = 0; v < 500; v += 37) {
    ClusterId g = h.cluster_of(NodeId(v));
    for (std::size_t level = 2; level <= h.levels() + 1; ++level) {
      g = h.group(g).parent;
      EXPECT_EQ(h.ancestor_of(NodeId(v), level), g);
    }
    EXPECT_EQ(g, h.root());
  }
}

TEST(BoundedFanout, BordersAreClosestPairsPerLevel) {
  const std::vector<Point> pts = random_cloud(120, 2, 772);
  const HfcTopology h(pts, MultiLevelParams::bounded(3, 6));
  for (std::size_t g = 0; g < h.group_count(); ++g) {
    const HierarchyGroup& parent = h.group(ClusterId(static_cast<int>(g)));
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const ClusterId a = parent.children[i];
        const ClusterId b = parent.children[j];
        const NodeId ba = h.border(a, b);
        const NodeId bb = h.border(b, a);
        const double chosen = euclidean(pts[ba.idx()], pts[bb.idx()]);
        EXPECT_DOUBLE_EQ(chosen, h.external_length(a, b));
        for (NodeId x : h.members(a)) {
          for (NodeId y : h.members(b)) {
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
  const HfcTopology h(pts, MultiLevelParams::bounded(5, 12));
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
  const HierarchicalServiceRouter router(net, h, net.coord_distance_fn());
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
  const HfcTopology serial(pts, params);
  set_global_threads(4);
  const HfcTopology threaded(pts, params);
  set_global_threads(0);

  ASSERT_EQ(serial.group_count(), threaded.group_count());
  for (std::size_t g = 0; g < serial.group_count(); ++g) {
    const ClusterId id(static_cast<int>(g));
    EXPECT_EQ(serial.group(id).children, threaded.group(id).children);
    if (id != serial.root()) {
      EXPECT_EQ(serial.members(id), threaded.members(id));
    }
    const HierarchyGroup& parent = serial.group(id);
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const ClusterId a = parent.children[i];
        const ClusterId b = parent.children[j];
        EXPECT_EQ(serial.border(a, b), threaded.border(a, b));
        EXPECT_EQ(serial.external_length(a, b), threaded.external_length(a, b));
      }
    }
  }
}

TEST(BoundedFanout, ValidatesParams) {
  const std::vector<Point> pts = random_cloud(40, 2, 777);
  EXPECT_THROW(HfcTopology(pts, MultiLevelParams::bounded(1, 8)),
               std::invalid_argument);
  EXPECT_THROW(HfcTopology(pts, MultiLevelParams::bounded(4, 0)),
               std::invalid_argument);
}

// ------------------------------------------- group-local pipeline ----
// DESIGN.md §14: building with the group-local construction pipeline
// must yield a hierarchy byte-identical to the single global sweep —
// same groups, same borders, same external-length doubles — for any
// thread count, in both construction modes. The HFC_ML_PAR_MIN_N floor
// selects the path: above n keeps the global sweep, 2 forces the
// pipeline.

void expect_same_hierarchy(const HfcTopology& a,
                           const HfcTopology& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.levels(), b.levels());
  ASSERT_EQ(a.group_count(), b.group_count());
  EXPECT_EQ(a.root(), b.root());
  for (std::size_t g = 0; g < a.group_count(); ++g) {
    const ClusterId id(static_cast<int>(g));
    EXPECT_EQ(a.group(id).level, b.group(id).level) << "group " << g;
    EXPECT_EQ(a.group(id).parent, b.group(id).parent) << "group " << g;
    EXPECT_EQ(a.group(id).children, b.group(id).children) << "group " << g;
    if (id != a.root()) {
      EXPECT_EQ(a.members(id), b.members(id)) << "group " << g;
    }
    const HierarchyGroup& parent = a.group(id);
    for (std::size_t i = 0; i + 1 < parent.children.size(); ++i) {
      for (std::size_t j = i + 1; j < parent.children.size(); ++j) {
        const ClusterId x = parent.children[i];
        const ClusterId y = parent.children[j];
        EXPECT_EQ(a.border(x, y), b.border(x, y));
        EXPECT_EQ(a.border(y, x), b.border(y, x));
        // Exact double equality: same BCP, same euclidean() rounding.
        EXPECT_EQ(a.external_length(x, y), b.external_length(x, y));
      }
    }
  }
  for (std::size_t v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.cluster_of(NodeId(static_cast<int>(v))),
              b.cluster_of(NodeId(static_cast<int>(v))));
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
  const HfcTopology global = [&] {
    EnvGuard global_sweep("HFC_ML_PAR_MIN_N", kAboveAnyN);
    return HfcTopology(pts, params);
  }();

  EnvGuard par_floor("HFC_ML_PAR_MIN_N", "2");
  set_global_threads(1);
  const HfcTopology serial(pts, params);
  set_global_threads(4);
  const HfcTopology threaded(pts, params);
  set_global_threads(0);

  expect_same_hierarchy(global, serial);
  expect_same_hierarchy(global, threaded);
}

TEST_P(GroupPipelineHierarchyTest, FlatLevelsMatchGlobalSweep) {
  EnvGuard spatial_floor("HFC_SPATIAL_MIN_N", "2");
  EnvGuard group("HFC_ML_PAR_GROUP", "64");
  const std::vector<Point> pts = random_cloud(400, 2, 902);

  const MultiLevelParams params;  // legacy fixed-levels construction
  const HfcTopology global = [&] {
    EnvGuard global_sweep("HFC_ML_PAR_MIN_N", kAboveAnyN);
    return HfcTopology(pts, params);
  }();

  EnvGuard par_floor("HFC_ML_PAR_MIN_N", "2");
  set_global_threads(1);
  const HfcTopology serial(pts, params);
  set_global_threads(4);
  const HfcTopology threaded(pts, params);
  set_global_threads(0);

  expect_same_hierarchy(global, serial);
  expect_same_hierarchy(global, threaded);
}

INSTANTIATE_TEST_SUITE_P(IndexKinds, GroupPipelineHierarchyTest,
                         ::testing::Values("kdtree"));

}  // namespace
}  // namespace hfc
