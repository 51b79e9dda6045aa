// Golden test: the paper's §5.1 worked example (Figures 6-7), rebuilt
// with the figure's distances.
//
// Four clusters C0..C3 with the figure's border pairs and external link
// lengths; internal border-to-border distances as stated in the text
// (d(C1.0,C1.2) = 5, d(C2.0,C2.1) = 2, d(C2.2,C2.1) = 1, C3's two external
// links share the single border C3.0). The paper's argument: judged by
// external links alone, path 1 (C0 -> C1 -> C2) looks best, but once the
// unavoidable internal distances are counted, path 2 (C0 -> C3 -> C2)
// wins. We pin exactly that flip.
#include <gtest/gtest.h>

#include "overlay/hfc_topology.h"
#include "routing/hierarchical_router.h"
#include "util/sym_matrix.h"

namespace hfc {
namespace {

// Node indexing mirrors Figure 6:
//   C0: 0 = C0.0, 1 = C0.1, 2 = C0.2, 3 = C0.3
//   C1: 4 = C1.0, 5 = C1.1, 6 = C1.2, 7 = C1.3
//   C2: 8 = C2.0, 9 = C2.1, 10 = C2.2
//   C3: 11 = C3.0, 12 = C3.1
constexpr std::size_t kNodes = 13;

struct PaperExample {
  SymMatrix<double> dist{kNodes, 100.0};  // non-designated pairs: far
  Clustering clustering;
  OverlayNetwork net;
  HfcTopology topo;

  PaperExample()
      : dist(make_distances()),
        clustering(make_clustering()),
        net(make_net()),
        topo(clustering, distance_fn()) {}

  [[nodiscard]] OverlayDistance distance_fn() const {
    return [this](NodeId a, NodeId b) {
      return a == b ? 0.0 : dist.at(a.idx(), b.idx());
    };
  }

  static SymMatrix<double> make_distances() {
    SymMatrix<double> d(kNodes, 100.0);
    for (std::size_t i = 0; i < kNodes; ++i) d.at(i, i) = 0.0;
    const auto set = [&d](std::size_t a, std::size_t b, double v) {
      d.at(a, b) = v;
    };
    // Intra-cluster distances (small, figure-flavoured).
    set(0, 1, 4);
    set(0, 2, 2);  // C0.2 -> C0.0, used when leaving toward C3
    set(0, 3, 3);
    set(1, 2, 2);  // C0.2 -> C0.1, used when leaving toward C1
    set(1, 3, 5);
    set(2, 3, 1);
    set(4, 5, 2);
    set(4, 6, 5);  // d(C1.0, C1.2) = 5, as in the paper's path-1 bound
    set(4, 7, 3);
    set(5, 6, 2);
    set(5, 7, 4);
    set(6, 7, 3);
    set(8, 9, 2);   // d(C2.0, C2.1) = 2 (path 1's final hop)
    set(8, 10, 3);
    set(9, 10, 1);  // d(C2.2, C2.1) = 1 (path 2's final hop)
    set(11, 12, 2);
    // External border links (Figure 6), with (C1,C2) nudged from 25 to
    // 24.9 so external-only selection strictly prefers path 1.
    set(1, 4, 20);    // (C0,C1) via (C0.1, C1.0)
    set(0, 10, 40);   // (C0,C2) via (C0.0, C2.2)
    set(0, 11, 30);   // (C0,C3) via (C0.0, C3.0)
    set(6, 8, 24.9);  // (C1,C2) via (C1.2, C2.0)
    set(5, 11, 50);   // (C1,C3) via (C1.1, C3.0)
    set(10, 11, 15);  // (C2,C3) via (C2.2, C3.0)
    return d;
  }

  static Clustering make_clustering() {
    Clustering c;
    const std::vector<std::vector<int>> groups{
        {0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10}, {11, 12}};
    c.assignment.assign(kNodes, ClusterId{});
    c.members.resize(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (int n : groups[g]) {
        c.assignment[static_cast<std::size_t>(n)] =
            ClusterId(static_cast<int>(g));
        c.members[g].push_back(NodeId(n));
      }
    }
    return c;
  }

  static OverlayNetwork make_net() {
    // Coordinates are placeholders; routing uses the explicit matrix.
    std::vector<Point> coords(kNodes, Point{0.0});
    ServicePlacement placement(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      placement[i] = {ServiceId(static_cast<std::int32_t>(i))};
    }
    // The requested service S9 is available only in C1 (at C1.1) and C3
    // (at C3.1); node 9 already holds ServiceId(9) by the scheme above,
    // so rename its filler to keep S9 out of C2.
    placement[9] = {ServiceId(20)};
    placement[5] = {ServiceId(5), ServiceId(9)};
    placement[12] = {ServiceId(9), ServiceId(12)};
    return OverlayNetwork(coords, placement);
  }
};

TEST(PaperExample, BordersMatchFigure) {
  PaperExample w;
  ASSERT_EQ(w.topo.cluster_count(), 4u);
  const ClusterId c0(0), c1(1), c2(2), c3(3);
  EXPECT_EQ(w.topo.border(c0, c1), NodeId(1));   // C0.1
  EXPECT_EQ(w.topo.border(c1, c0), NodeId(4));   // C1.0
  EXPECT_EQ(w.topo.border(c0, c2), NodeId(0));   // C0.0
  EXPECT_EQ(w.topo.border(c2, c0), NodeId(10));  // C2.2
  EXPECT_EQ(w.topo.border(c0, c3), NodeId(0));   // C0.0
  EXPECT_EQ(w.topo.border(c3, c0), NodeId(11));  // C3.0
  EXPECT_EQ(w.topo.border(c1, c2), NodeId(6));   // C1.2
  EXPECT_EQ(w.topo.border(c2, c1), NodeId(8));   // C2.0
  EXPECT_EQ(w.topo.border(c2, c3), NodeId(10));  // C2.2
  EXPECT_EQ(w.topo.border(c3, c2), NodeId(11));  // C3.0
  EXPECT_DOUBLE_EQ(w.topo.external_length(c0, c1), 20.0);
  EXPECT_DOUBLE_EQ(w.topo.external_length(c2, c3), 15.0);
}

TEST(PaperExample, InternalLowerBoundsFlipPathChoice) {
  PaperExample w;
  ServiceRequest request;
  request.source = NodeId(2);       // C0.2
  request.destination = NodeId(9);  // C2.1
  request.graph = ServiceGraph::linear({ServiceId(9)});

  // With the paper's refinement: path 2 through C3 wins
  //   d(C0.2,C0.0)=2 + 30 + 0 (C3.0 is both borders) + 15 + d(C2.2,C2.1)=1
  //   = 48, versus 53.9 through C1.
  const HierarchicalServiceRouter with_lb(w.net, w.topo, w.distance_fn());
  const auto csp_lb = with_lb.compute_csp(request);
  ASSERT_TRUE(csp_lb.found);
  ASSERT_EQ(csp_lb.steps.size(), 1u);
  EXPECT_EQ(csp_lb.steps[0].unit, ClusterId(3));
  EXPECT_DOUBLE_EQ(csp_lb.lower_bound, 48.0);

  // Judged by external links only: path 1 through C1 (20 + 24.9 = 44.9)
  // beats path 2 (30 + 15 = 45) — the paper's "no reason to prefer"
  // mistake the back-tracking verification corrects.
  HierarchicalRoutingParams ext_only;
  ext_only.use_internal_lower_bounds = false;
  const HierarchicalServiceRouter without_lb(w.net, w.topo, w.distance_fn(),
                                             ext_only);
  const auto csp_ext = without_lb.compute_csp(request);
  ASSERT_TRUE(csp_ext.found);
  ASSERT_EQ(csp_ext.steps.size(), 1u);
  EXPECT_EQ(csp_ext.steps[0].unit, ClusterId(1));
  EXPECT_DOUBLE_EQ(csp_ext.lower_bound, 44.9);
}

TEST(PaperExample, FinalPathThroughC3) {
  PaperExample w;
  ServiceRequest request;
  request.source = NodeId(2);
  request.destination = NodeId(9);
  request.graph = ServiceGraph::linear({ServiceId(9)});
  const HierarchicalServiceRouter router(w.net, w.topo, w.distance_fn());
  const ServicePath path = router.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_TRUE(satisfies(path, request, w.net));
  // C0.2 -> C0.0 -> C3.0 -> S9/C3.1 -> C3.0 -> C2.2 -> C2.1.
  EXPECT_EQ(path.to_string(),
            "-/P2, -/P0, -/P11, S9/P12, -/P11, -/P10, -/P9");
  // Realised cost 2+30+2+2+15+1 = 52 >= the 48 lower bound (the slack is
  // the intra-C3 detour the cluster level could not see).
  EXPECT_DOUBLE_EQ(path_length(path, w.distance_fn()), 52.0);
}

TEST(PaperExample, DivideMatchesFigure7d) {
  // The figure's full request S1..S5 dissects into three child requests:
  // one for the source cluster, one for C1, one handled in C2. Rebuild
  // the capability layout of Figure 6 and verify the dissection shape.
  PaperExample w;
  HierarchicalServiceRouter router(w.net, w.topo, w.distance_fn());
  // Aggregate SCTs exactly as in Figure 7(a).
  router.set_cluster_capability(ClusterId(0), {ServiceId(1), ServiceId(4)});
  router.set_cluster_capability(
      ClusterId(1), {ServiceId(2), ServiceId(3), ServiceId(4)});
  router.set_cluster_capability(ClusterId(2), {ServiceId(2), ServiceId(5)});
  router.set_cluster_capability(ClusterId(3), {ServiceId(1), ServiceId(4)});

  ServiceRequest request;
  request.source = NodeId(2);       // C0.2
  request.destination = NodeId(9);  // C2.1
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(2),
                                        ServiceId(3), ServiceId(4),
                                        ServiceId(5)});
  const auto csp = router.compute_csp(request);
  ASSERT_TRUE(csp.found);
  // S1 in C0 (or C3), S2-S4 in C1, S5 in C2 — the figure's bold path is
  // S1/C0, S2/C1, S3/C1, S4/C1, S5/C2.
  const auto children = router.divide(csp, request);
  ASSERT_EQ(children.size(), 3u);
  EXPECT_EQ(children[0].entry, request.source);
  EXPECT_EQ(children[2].unit, ClusterId(2));
  EXPECT_EQ(children[2].exit, request.destination);
  EXPECT_EQ(children[1].chain.size(), 3u);  // S2, S3, S4 in C1
}

}  // namespace
}  // namespace hfc
