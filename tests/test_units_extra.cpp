// Additional focused unit tests: diamond service graphs, DAG solver tie
// handling, multicast accessors, and cross-structure coherence checks.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/zahn.h"
#include "multicast/service_multicast.h"
#include "overlay/hfc_topology.h"
#include "routing/service_dag.h"
#include "services/service_graph.h"
#include "util/rng.h"

namespace hfc {
namespace {

TEST(ServiceGraphExtra, DiamondConfigurations) {
  // a -> b -> d and a -> c -> d: two configurations sharing endpoints.
  ServiceGraph g;
  const std::size_t a = g.add_vertex(ServiceId(0));
  const std::size_t b = g.add_vertex(ServiceId(1));
  const std::size_t c = g.add_vertex(ServiceId(2));
  const std::size_t d = g.add_vertex(ServiceId(3));
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  EXPECT_FALSE(g.is_linear());
  const auto configs = g.configurations();
  ASSERT_EQ(configs.size(), 2u);
  for (const auto& config : configs) {
    ASSERT_EQ(config.size(), 3u);
    EXPECT_EQ(config.front(), a);
    EXPECT_EQ(config.back(), d);
  }
  // Topological order puts a first and d last.
  const auto order = g.topological_order();
  EXPECT_EQ(order.front(), a);
  EXPECT_EQ(order.back(), d);
}

TEST(ServiceDagExtra, DiamondPicksCheaperBranch) {
  ServiceGraph g;
  const std::size_t a = g.add_vertex(ServiceId(0));
  const std::size_t b = g.add_vertex(ServiceId(1));
  const std::size_t c = g.add_vertex(ServiceId(2));
  const std::size_t d = g.add_vertex(ServiceId(3));
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  // The branch via c is cheaper.
  const DagSolution s = solve_service_dag(
      g, {{0}, {50}, {5}, {10}}, 0, 10,
      [](int x, int y) { return std::abs(static_cast<double>(x - y)); });
  ASSERT_TRUE(s.found);
  ASSERT_EQ(s.assignments.size(), 3u);
  EXPECT_EQ(s.assignments[1].sg_vertex, c);
  // 0->0 (a) + 0->5 (c) + 5->10 (d) + 10->10 = 10.
  EXPECT_DOUBLE_EQ(s.cost, 10.0);
}

TEST(ServiceDagExtra, ZeroDistanceTiesStillProduceValidPath) {
  ServiceGraph g = ServiceGraph::linear({ServiceId(0), ServiceId(1)});
  // Everything ties.
  const DagSolution s = solve_service_dag(g, {{1, 2}, {1, 2}}, 0, 0,
                                          [](int, int) { return 0.0; });
  ASSERT_TRUE(s.found);
  EXPECT_DOUBLE_EQ(s.cost, 0.0);
  ASSERT_EQ(s.assignments.size(), 2u);
  EXPECT_EQ(s.assignments[0].sg_vertex, 0u);
  EXPECT_EQ(s.assignments[1].sg_vertex, 1u);
}

TEST(MulticastExtra, BranchToValidatesAndOrdersRootFirst) {
  MulticastTree tree;
  tree.found = true;
  tree.nodes.push_back({NodeId(0), ServiceId{},
                        MulticastTree::TreeNode::kNoParent});
  tree.nodes.push_back({NodeId(1), ServiceId(4), 0});
  tree.nodes.push_back({NodeId(2), ServiceId{}, 1});
  const auto branch = tree.branch_to(2);
  ASSERT_EQ(branch.size(), 3u);
  EXPECT_EQ(branch[0].proxy, NodeId(0));
  EXPECT_EQ(branch[1].service, ServiceId(4));
  EXPECT_EQ(branch[2].proxy, NodeId(2));
  EXPECT_THROW((void)tree.branch_to(9), std::invalid_argument);
}

TEST(CoherenceExtra, KnowledgeCoordinateSetCoversHopPaths) {
  // Every node a proxy may be asked to relay through (its HFC hop paths
  // to anyone) lies inside its Figure-4 coordinate set — i.e. the
  // distributed knowledge suffices for the routing the topology demands.
  Rng rng(99);
  std::vector<Point> pts;
  for (const double base : {0.0, 60.0, 150.0}) {
    for (int i = 0; i < 4; ++i) {
      pts.push_back({base + 2.0 * (i % 2) + rng.uniform_real(-0.1, 0.1),
                     2.0 * (i / 2) + rng.uniform_real(-0.1, 0.1)});
    }
  }
  ServicePlacement placement(pts.size());
  for (auto& p : placement) p = {ServiceId(0)};
  const OverlayNetwork net(pts, placement);
  const HfcTopology topo(cluster_points(pts), net.coord_distance_fn());
  for (NodeId u : net.all_nodes()) {
    const NodeKnowledge k = topo.knowledge_of(u);
    for (NodeId v : net.all_nodes()) {
      for (NodeId hop : topo.hop_path(u, v)) {
        if (hop == v) continue;  // the far endpoint itself may be unknown
        EXPECT_TRUE(std::binary_search(k.coordinate_set.begin(),
                                       k.coordinate_set.end(), hop))
            << "node " << u << " cannot locate relay " << hop;
      }
    }
  }
}

TEST(CoherenceExtra, ExternalLinksAreSymmetricallyConsistent) {
  Rng rng(98);
  std::vector<Point> pts;
  for (const double base : {0.0, 80.0, 200.0, 350.0}) {
    for (int i = 0; i < 3; ++i) {
      pts.push_back({base + i + rng.uniform_real(-0.1, 0.1), 0.0});
    }
  }
  ServicePlacement placement(pts.size());
  for (auto& p : placement) p = {ServiceId(0)};
  const OverlayNetwork net(pts, placement);
  const HfcTopology topo(cluster_points(pts), net.coord_distance_fn());
  for (std::size_t a = 0; a < topo.cluster_count(); ++a) {
    for (std::size_t b = 0; b < topo.cluster_count(); ++b) {
      if (a == b) continue;
      const ClusterId ca(static_cast<int>(a));
      const ClusterId cb(static_cast<int>(b));
      EXPECT_DOUBLE_EQ(topo.external_length(ca, cb),
                       topo.external_length(cb, ca));
      EXPECT_DOUBLE_EQ(topo.external_length(ca, cb),
                       net.coord_distance(topo.border(ca, cb),
                                          topo.border(cb, ca)));
    }
  }
}

}  // namespace
}  // namespace hfc
