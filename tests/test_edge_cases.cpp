// Edge-case and failure-path tests across modules: input validation,
// degenerate sizes, statistic variants and boundary behaviours that the
// main suites do not reach.
#include <gtest/gtest.h>

#include <sstream>

#include "cluster/zahn.h"
#include "coords/gnp.h"
#include "distance/latency_oracle.h"
#include "coords/nelder_mead.h"
#include "core/experiment.h"
#include "overlay/hfc_topology.h"
#include "overlay/mesh_topology.h"
#include "services/workload.h"
#include "topology/transit_stub.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/sym_matrix.h"

namespace hfc {
namespace {

TEST(IdsEdge, StreamOutput) {
  std::ostringstream os;
  os << NodeId(5) << " " << NodeId{};
  EXPECT_EQ(os.str(), "5 <invalid>");
}

TEST(SymMatrixEdge, UncheckedOperatorMatchesAt) {
  SymMatrix<double> m(4, 0.0);
  m.at(2, 3) = 5.5;
  EXPECT_DOUBLE_EQ(m(3, 2), 5.5);
  EXPECT_DOUBLE_EQ(m(2, 3), 5.5);
  m(0, 1) = 2.0;
  EXPECT_DOUBLE_EQ(m.at(1, 0), 2.0);
  EXPECT_TRUE(SymMatrix<int>().empty());
}

TEST(NelderMeadEdge, IterationCapReportsNotConverged) {
  const Objective f = [](const std::vector<double>& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  NelderMeadParams params;
  params.max_iterations = 2;
  const NelderMeadResult r = nelder_mead(f, {100.0, 100.0}, params);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2u);
}

TEST(NelderMeadEdge, MultistartValidation) {
  const Objective f = [](const std::vector<double>&) { return 0.0; };
  Rng rng(1);
  EXPECT_THROW((void)nelder_mead_multistart(f, 0, 0, 1, 1, rng),
               std::invalid_argument);
  EXPECT_THROW((void)nelder_mead_multistart(f, 1, 0, 1, 0, rng),
               std::invalid_argument);
  EXPECT_THROW((void)nelder_mead_multistart(f, 1, 1, 0, 1, rng),
               std::invalid_argument);
}

TEST(ZahnEdge, MedianStatisticResistsOutlierEdge) {
  // Chain of unit-spaced points, one medium gap (x3) and one huge gap
  // (x100) nearby: with the mean, the huge edge masks the medium one;
  // with the median both are cut.
  std::vector<Point> pts;
  double x = 0.0;
  for (int i = 0; i < 6; ++i) pts.push_back({x += 1.0, 0.0});
  pts.push_back({x += 5.0, 0.0});    // medium gap
  pts.push_back({x += 1.0, 0.0});    // two-node middle segment: the huge
  pts.push_back({x += 100.0, 0.0});  // edge is within depth 2 of the
  for (int i = 0; i < 6; ++i) {      // medium edge and masks its mean
    pts.push_back({x += 1.0, 0.0});
  }

  ZahnParams mean_params;
  mean_params.statistic = ZahnStatistic::kMean;
  ZahnParams median_params;
  median_params.statistic = ZahnStatistic::kMedian;
  const Clustering by_mean = cluster_points(pts, mean_params);
  const Clustering by_median = cluster_points(pts, median_params);
  EXPECT_EQ(by_median.cluster_count(), 3u);
  // The mean variant misses the medium gap next to the huge one.
  EXPECT_LT(by_mean.cluster_count(), by_median.cluster_count());
}

TEST(TransitStubEdge, CustomShapeRespected) {
  TransitStubParams params;
  params.transit_domains = 2;
  params.transit_routers_per_domain = 2;
  params.stub_domains_per_transit = 1;
  params.routers_per_stub = 3;
  EXPECT_EQ(params.total_routers(), 2 * 2 * (1 + 3));
  Rng rng(2);
  const TransitStubTopology topo = generate_transit_stub(params, rng);
  EXPECT_EQ(topo.network.router_count(), params.total_routers());
  EXPECT_TRUE(topo.network.connected());
  EXPECT_EQ(topo.stub_domain_members.size(), 4u);
}

TEST(TransitStubEdge, RejectsDegenerateParams) {
  Rng rng(3);
  TransitStubParams params;
  params.transit_domains = 0;
  EXPECT_THROW((void)generate_transit_stub(params, rng),
               std::invalid_argument);
  params = TransitStubParams{};
  params.routers_per_stub = 0;
  EXPECT_THROW((void)generate_transit_stub(params, rng),
               std::invalid_argument);
  params = TransitStubParams{};
  params.intra_stub_delay_min = 0.0;
  EXPECT_THROW((void)generate_transit_stub(params, rng),
               std::invalid_argument);
}

TEST(MeshEdge, RejectsBadParams) {
  Rng rng(4);
  const OverlayDistance unit = [](NodeId, NodeId) { return 1.0; };
  MeshParams params;
  params.nearest_min = 0;
  EXPECT_THROW(MeshTopology(5, unit, params, rng), std::invalid_argument);
  params = MeshParams{};
  params.nearest_min = 5;
  params.nearest_max = 2;
  EXPECT_THROW(MeshTopology(5, unit, params, rng), std::invalid_argument);
  EXPECT_THROW(MeshTopology(0, unit, MeshParams{}, rng),
               std::invalid_argument);
}

TEST(GnpEdge, BuildDistanceMapValidation) {
  PhysicalNetwork net;
  const RouterId a = net.add_router(RouterKind::kStub);
  const RouterId b = net.add_router(RouterKind::kStub);
  net.add_link(a, b, 1.0);
  LatencyOracle oracle(net, {a, b}, 0.0, Rng(5));
  EXPECT_EQ(oracle.endpoint_count(), 2u);
  GnpParams params;
  Rng rng(6);
  // landmark_count >= endpoints: no proxies left.
  EXPECT_THROW((void)build_distance_map(oracle, 2, params, rng),
               std::invalid_argument);
  EXPECT_THROW((void)build_distance_map(oracle, 1, params, rng),
               std::invalid_argument);
}

TEST(WorkloadEdge, TwoNodePoolAlwaysDistinctEndpoints) {
  WorkloadParams params;
  Rng rng(7);
  const auto requests =
      make_requests(30, {NodeId(1), NodeId(2)}, params, rng);
  for (const ServiceRequest& r : requests) {
    EXPECT_NE(r.source, r.destination);
  }
}

TEST(ExperimentEdge, RelayLoadWithZeroRequests) {
  FrameworkConfig config;
  config.physical_routers = 300;
  config.proxies = 40;
  config.clients = 5;
  config.seed = 8;
  const auto fw = HfcFramework::build(config);
  const RelayLoadSample load = measure_relay_load(*fw, 0, 9);
  EXPECT_DOUBLE_EQ(load.max_share, 0.0);
  EXPECT_DOUBLE_EQ(load.top5_share, 0.0);
  EXPECT_EQ(load.loaded_proxies, 0u);
}

TEST(MultiLevelEdge, TwoNodesFormTrivialHierarchy) {
  const std::vector<Point> pts{{0, 0}, {1, 0}};
  const HfcTopology h(pts, MultiLevelParams{});
  EXPECT_EQ(h.node_count(), 2u);
  EXPECT_GE(h.levels(), 1u);
  const auto path = h.hop_path(NodeId(0), NodeId(1));
  EXPECT_EQ(path.size(), 2u);
}

TEST(MultiLevelEdge, PathDistanceSumsHopPath) {
  Rng rng(10);
  std::vector<Point> pts;
  for (const double base : {0.0, 50.0, 1000.0}) {
    for (int i = 0; i < 4; ++i) {
      pts.push_back({base + i, rng.uniform_real(0, 1)});
    }
  }
  const HfcTopology h(pts, MultiLevelParams{});
  const OverlayDistance d = [&pts](NodeId a, NodeId b) {
    return euclidean(pts[a.idx()], pts[b.idx()]);
  };
  for (int a = 0; a < 12; ++a) {
    for (int b = 0; b < 12; ++b) {
      const auto path = h.hop_path(NodeId(a), NodeId(b));
      double sum = 0.0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        sum += d(path[i], path[i + 1]);
      }
      EXPECT_NEAR(h.path_distance(NodeId(a), NodeId(b), d), sum, 1e-9);
      // Constrained distance respects the triangle-inequality floor.
      EXPECT_GE(sum, d(NodeId(a), NodeId(b)) - 1e-9);
    }
  }
}

TEST(StatsEdge, SummaryP95) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  const Summary s = summarize(values);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
}

}  // namespace
}  // namespace hfc
