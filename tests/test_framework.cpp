// End-to-end tests of the HfcFramework façade and the experiment harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/experiment.h"
#include "core/framework.h"
#include "overlay/dot_export.h"
#include "routing/service_path.h"
#include "sim/state_protocol.h"

namespace hfc {
namespace {

FrameworkConfig small_config(std::uint64_t seed) {
  FrameworkConfig config;
  config.physical_routers = 300;
  config.proxies = 80;
  config.landmarks = 8;
  config.clients = 20;
  config.seed = seed;
  return config;
}

TEST(Framework, BuildsConsistentStack) {
  const auto fw = HfcFramework::build(small_config(5));
  EXPECT_EQ(fw->overlay().size(), 80u);
  EXPECT_EQ(fw->distance_map().proxy_coords.size(), 80u);
  EXPECT_EQ(fw->topology().node_count(), 80u);
  EXPECT_GE(fw->topology().cluster_count(), 2u);
  EXPECT_EQ(fw->client_proxies().size(), 20u);
  EXPECT_EQ(fw->underlay().network.router_count(), 300u);
  // Every client proxy is a valid node.
  for (NodeId p : fw->client_proxies()) {
    EXPECT_LT(p.idx(), 80u);
  }
}

TEST(Framework, DeterministicAcrossBuilds) {
  const auto a = HfcFramework::build(small_config(9));
  const auto b = HfcFramework::build(small_config(9));
  EXPECT_EQ(a->topology().cluster_count(), b->topology().cluster_count());
  EXPECT_EQ(a->topology().all_borders(), b->topology().all_borders());
  Rng rng_a(77);
  Rng rng_b(77);
  const auto req_a = a->generate_requests(5, rng_a);
  const auto req_b = b->generate_requests(5, rng_b);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a->route(req_a[i]).to_string(),
              b->route(req_b[i]).to_string());
  }
}

TEST(Framework, DifferentSeedsDiffer) {
  const auto a = HfcFramework::build(small_config(1));
  const auto b = HfcFramework::build(small_config(2));
  // Coordinates should differ (different underlay + noise).
  EXPECT_NE(a->distance_map().proxy_coords, b->distance_map().proxy_coords);
}

TEST(Framework, RoutesGeneratedRequests) {
  const auto fw = HfcFramework::build(small_config(11));
  Rng rng(12);
  const auto requests = fw->generate_requests(25, rng);
  const OverlayDistance truth = fw->true_distance();
  for (const ServiceRequest& request : requests) {
    const ServicePath path = fw->route(request);
    ASSERT_TRUE(path.found);
    EXPECT_TRUE(satisfies(path, request, fw->overlay()));
    EXPECT_GT(path_length(path, truth), 0.0);
  }
}

TEST(Framework, DistancesAreSaneEstimates) {
  const auto fw = HfcFramework::build(small_config(13));
  const OverlayDistance est = fw->estimated_distance();
  const OverlayDistance truth = fw->true_distance();
  for (int i = 0; i < 80; i += 7) {
    for (int j = 0; j < 80; j += 11) {
      const NodeId a(i);
      const NodeId b(j);
      EXPECT_GE(est(a, b), 0.0);
      EXPECT_GE(truth(a, b), 0.0);
      EXPECT_DOUBLE_EQ(est(a, b), est(b, a));
      EXPECT_DOUBLE_EQ(truth(a, b), truth(b, a));
      if (i == j) {
        EXPECT_DOUBLE_EQ(truth(a, b), 0.0);
      }
    }
  }
}

TEST(Framework, ValidatesConfig) {
  FrameworkConfig bad = small_config(1);
  bad.proxies = 1;
  EXPECT_THROW((void)HfcFramework::build(bad), std::invalid_argument);
  bad = small_config(1);
  bad.landmarks = 1;
  EXPECT_THROW((void)HfcFramework::build(bad), std::invalid_argument);
}

TEST(Framework, StateProtocolConvergesOnBuiltStack) {
  const auto fw = HfcFramework::build(small_config(15));
  StateProtocolSim sim(fw->overlay(), fw->topology(), fw->true_distance());
  sim.run();
  EXPECT_TRUE(sim.fully_converged());
}

// ------------------------------------------------------- experiments ----

TEST(Experiment, PaperEnvironments) {
  const auto envs = paper_environments();
  ASSERT_EQ(envs.size(), 4u);
  EXPECT_EQ(envs[0].physical_routers, 300u);
  EXPECT_EQ(envs[0].proxies, 250u);
  EXPECT_EQ(envs[3].physical_routers, 1200u);
  EXPECT_EQ(envs[3].proxies, 1000u);
  for (const Environment& env : envs) {
    EXPECT_EQ(env.landmarks, 10u);
    const FrameworkConfig config = config_for(env, 3);
    EXPECT_EQ(config.proxies, env.proxies);
    EXPECT_EQ(config.workload.services_per_proxy_min, 4u);
    EXPECT_EQ(config.workload.services_per_proxy_max, 10u);
    EXPECT_EQ(config.workload.request_length_min, 4u);
    EXPECT_EQ(config.workload.request_length_max, 10u);
  }
}

TEST(Experiment, OverheadSampleInvariants) {
  const auto fw = HfcFramework::build(small_config(17));
  const OverheadSample s = measure_state_overhead(*fw);
  EXPECT_DOUBLE_EQ(s.flat_coordinate, 80.0);
  EXPECT_DOUBLE_EQ(s.flat_service, 80.0);
  // Hierarchical state is strictly smaller than flat for multi-cluster
  // overlays of this size.
  EXPECT_LT(s.hfc_coordinate, s.flat_coordinate);
  EXPECT_LT(s.hfc_service, s.flat_service);
  EXPECT_GT(s.hfc_coordinate, 0.0);
  EXPECT_GT(s.hfc_service, 0.0);
  EXPECT_EQ(s.clusters, fw->topology().cluster_count());
}

TEST(Experiment, PathEfficiencyProducesComparableAverages) {
  const auto fw = HfcFramework::build(small_config(19));
  const PathEfficiencySample s = measure_path_efficiency(*fw, 40, 99);
  EXPECT_EQ(s.requests, 40u);
  EXPECT_EQ(s.failures, 0u);
  EXPECT_GT(s.mesh_avg, 0.0);
  EXPECT_GT(s.hfc_agg_avg, 0.0);
  EXPECT_GT(s.hfc_noagg_avg, 0.0);
  // No-aggregation (full state over HFC) should not be slower than the
  // aggregated variant by construction under the decision metric; under
  // measured truth allow slack but both must be in the same ballpark.
  EXPECT_LT(s.hfc_noagg_avg, 3.0 * s.hfc_agg_avg);
  EXPECT_LT(s.hfc_agg_avg, 3.0 * s.hfc_noagg_avg);
}

TEST(Experiment, ConstructionCostAccounting) {
  const auto fw = HfcFramework::build(small_config(21));
  const ConstructionCost cost = measure_construction_cost(*fw);
  EXPECT_EQ(cost.report_messages, 80u);
  EXPECT_EQ(cost.info_messages, 80u);
  EXPECT_EQ(cost.measurement_probes, fw->distance_map().probes_used);
  // Far below direct n^2 measurement.
  EXPECT_LT(cost.measurement_probes, 80u * 79u / 2u);
  // Payload: at least the coordinate sets, at most everything times n.
  std::size_t coord_total = 0;
  for (NodeId n : fw->overlay().all_nodes()) {
    coord_total += fw->topology().coordinate_state_count(n);
  }
  EXPECT_GE(cost.info_node_states, coord_total);
}

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// The experiment helpers and the DOT export read the one topology at any
// depth. A bounded-fanout build of three children per group is several
// levels deep at 80 proxies.
TEST(Experiment, HelpersServeMultiLevelBuilds) {
  FrameworkConfig config = small_config(41);
  config.scheme = TopologyScheme::kMultiLevel;
  config.multilevel = MultiLevelParams::bounded(3, 8);
  const auto fw = HfcFramework::build(config);
  const HfcTopology& topo = fw->topology();
  ASSERT_GE(topo.levels(), 2u);

  const OverheadSample overhead = measure_state_overhead(*fw);
  EXPECT_EQ(overhead.clusters, topo.cluster_count());
  EXPECT_LT(overhead.hfc_coordinate, overhead.flat_coordinate);
  EXPECT_LT(overhead.hfc_service, overhead.flat_service);

  const PathEfficiencySample paths = measure_path_efficiency(*fw, 20, 43);
  EXPECT_EQ(paths.requests, 20u);
  EXPECT_EQ(paths.failures, 0u);
  EXPECT_GT(paths.hfc_agg_avg, 0.0);
  EXPECT_GT(paths.hfc_noagg_avg, 0.0);

  // Each proxy holds the sibling tables on its ancestry: at most 3·2
  // entries per level, far below the c·(c−1) of one flat table.
  const ConstructionCost cost = measure_construction_cost(*fw);
  std::size_t base = 0;
  for (const NodeId n : fw->overlay().all_nodes()) {
    base += topo.members(topo.cluster_of(n)).size() +
            topo.coordinate_state_count(n);
  }
  EXPECT_GT(cost.info_node_states, base);
  EXPECT_LE(cost.info_node_states, base + 80 * 6 * topo.levels());

  EXPECT_GT(measure_relay_load(*fw, 20, 47).loaded_proxies, 0u);

  // One subgraph per leaf cluster, one bold link per sibling pair.
  const std::string dot = to_dot(topo);
  std::size_t sibling_pairs = 0;
  for (std::size_t g = 0; g < topo.group_count(); ++g) {
    const std::size_t k =
        topo.group(ClusterId(static_cast<int>(g))).children.size();
    sibling_pairs += k * (k - 1) / 2;
  }
  EXPECT_EQ(count_of(dot, "subgraph cluster_"), topo.cluster_count());
  EXPECT_EQ(count_of(dot, "style=bold"), sibling_pairs);
}

// On the paper's bi-level topology the same helpers count one global
// border table of c·(c−1) entries and draw every cluster pair.
TEST(Experiment, FlatHelpersCountTheGlobalBorderTable) {
  const auto fw = HfcFramework::build(small_config(21));
  const HfcTopology& topo = fw->topology();
  ASSERT_EQ(topo.levels(), 1u);
  const std::size_t c = topo.cluster_count();
  std::size_t want = 0;
  for (const NodeId n : fw->overlay().all_nodes()) {
    want += topo.members(topo.cluster_of(n)).size() + c * (c - 1) +
            topo.coordinate_state_count(n);
  }
  EXPECT_EQ(measure_construction_cost(*fw).info_node_states, want);
  EXPECT_EQ(count_of(to_dot(topo), "style=bold"), c * (c - 1) / 2);
}

TEST(Experiment, FormatRowPadsCells) {
  const std::string row = format_row({"ab", "c"}, 4);
  EXPECT_EQ(row, "ab   c    ");
}

TEST(FrameworkScheme, AutoStaysFlatAtSmallN) {
  const auto fw = HfcFramework::build(small_config(25));
  EXPECT_FALSE(fw->is_multilevel());
  EXPECT_EQ(fw->topology().node_count(), 80u);
}

TEST(FrameworkScheme, ExplicitMultiLevelBuildsAndRoutes) {
  FrameworkConfig config = small_config(27);
  config.scheme = TopologyScheme::kMultiLevel;
  const auto fw = HfcFramework::build(config);
  EXPECT_TRUE(fw->is_multilevel());
  EXPECT_EQ(fw->topology().node_count(), 80u);

  Rng rng(29);
  std::size_t found = 0;
  for (const ServiceRequest& request : fw->generate_requests(10, rng)) {
    const ServicePath path = fw->route(request);
    if (path.found) ++found;
  }
  EXPECT_GT(found, 0u);
}

TEST(FrameworkScheme, AutoThresholdKnobSwitchesStacks) {
  // kAuto escalates exactly at 100000 proxies; the explicit schemes
  // ignore the count.
  EXPECT_FALSE(builds_multilevel(TopologyScheme::kAuto, 99999));
  EXPECT_TRUE(builds_multilevel(TopologyScheme::kAuto, 100000));
  EXPECT_FALSE(builds_multilevel(TopologyScheme::kFlat, 100000));
  EXPECT_TRUE(builds_multilevel(TopologyScheme::kMultiLevel, 80));
  // A build follows the same decision.
  FrameworkConfig config = small_config(31);
  EXPECT_FALSE(HfcFramework::build(config)->is_multilevel());
  config.scheme = TopologyScheme::kMultiLevel;
  EXPECT_TRUE(HfcFramework::build(config)->is_multilevel());
}

TEST(FrameworkScheme, MultiLevelBuildIsDeterministic) {
  FrameworkConfig config = small_config(33);
  config.scheme = TopologyScheme::kMultiLevel;
  const auto a = HfcFramework::build(config);
  const auto b = HfcFramework::build(config);
  EXPECT_EQ(a->topology().group_count(), b->topology().group_count());
  Rng rng_a(35);
  Rng rng_b(35);
  const auto req_a = a->generate_requests(5, rng_a);
  const auto req_b = b->generate_requests(5, rng_b);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(a->route(req_a[i]).to_string(), b->route(req_b[i]).to_string());
  }
}

}  // namespace
}  // namespace hfc
