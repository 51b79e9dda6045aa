// Randomised property sweeps: invariants that must hold across random
// operation sequences and workloads (parameterised over seeds).
#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "cluster/zahn.h"
#include "core/framework.h"
#include "dynamic/dynamic_overlay.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "multicast/service_multicast.h"
#include "qos/qos_manager.h"
#include "routing/flat_router.h"
#include "routing/path_expansion.h"
#include "services/workload.h"
#include "sim/event_queue.h"
#include "streaming/stream_schedule.h"
#include "streaming/streaming_session.h"
#include "util/rng.h"

namespace hfc {
namespace {

std::unique_ptr<HfcFramework> tiny_framework(std::uint64_t seed) {
  FrameworkConfig config;
  config.physical_routers = 300;
  config.proxies = 60;
  config.landmarks = 8;
  config.clients = 12;
  config.seed = seed;
  return HfcFramework::build(config);
}

// ------------------------------------------------------------- QoS ----

class QosSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QosSweepTest, AdmissionReleaseInvariants) {
  const auto fw = tiny_framework(GetParam());
  const double capacity = 5.0;
  QosManager qos(fw->overlay(), fw->topology(),
                 std::vector<double>(fw->overlay().size(), capacity),
                 CapacityAggregation::kOptimistic);
  Rng rng(GetParam() + 1);
  const auto requests = fw->generate_requests(60, rng);

  std::deque<std::pair<ServicePath, double>> active;
  double expected_reserved = 0.0;
  for (const ServiceRequest& request : requests) {
    // Randomly end an old session first.
    if (!active.empty() && rng.chance(0.4)) {
      auto [path, units] = active.front();
      active.pop_front();
      qos.release(path, 2.0);
      expected_reserved -= units;
    }
    const auto admission = qos.admit(fw->router(), request, 2.0);
    if (admission.admitted) {
      EXPECT_TRUE(satisfies(admission.path, request, fw->overlay()));
      double units = 0.0;
      std::vector<NodeId> distinct;
      for (const ServiceHop& hop : admission.path.hops) {
        if (!hop.is_relay() &&
            std::find(distinct.begin(), distinct.end(), hop.proxy) ==
                distinct.end()) {
          distinct.push_back(hop.proxy);
          units += 2.0;
        }
      }
      active.emplace_back(admission.path, units);
      expected_reserved += units;
    }
    // Invariants after every operation.
    for (NodeId p : fw->overlay().all_nodes()) {
      EXPECT_GE(qos.residual(p), -1e-9);
      EXPECT_LE(qos.residual(p), capacity + 1e-9);
    }
    EXPECT_NEAR(qos.reserved_total(), expected_reserved, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QosSweepTest,
                         ::testing::Values(601, 602, 603, 604));

// --------------------------------------------------------- dynamic ----

class DynamicSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicSweepTest, ChurnKeepsOverlayRoutable) {
  const auto fw = tiny_framework(GetParam());
  ServicePlacement placement;
  for (NodeId p : fw->overlay().all_nodes()) {
    const auto services = fw->overlay().services_at(p);
    placement.emplace_back(services.begin(), services.end());
  }
  DynamicHfcOverlay overlay(fw->distance_map().proxy_coords, placement,
                            fw->config().zahn);
  Rng rng(GetParam() + 2);
  std::vector<NodeId> inactive;

  for (int step = 0; step < 60; ++step) {
    // Random churn operation.
    if (!inactive.empty() && rng.chance(0.5)) {
      const std::size_t pick = rng.pick_index(inactive.size());
      overlay.activate(inactive[pick]);
      inactive.erase(inactive.begin() + static_cast<long>(pick));
    } else if (overlay.active_count() > overlay.universe_size() / 2) {
      NodeId victim;
      do {
        victim = NodeId(static_cast<int>(
            rng.pick_index(overlay.universe_size())));
      } while (!overlay.is_active(victim));
      overlay.deactivate(victim);
      inactive.push_back(victim);
    }
    // Structural invariants.
    EXPECT_EQ(overlay.active_count() + inactive.size(),
              overlay.universe_size());
    EXPECT_GE(overlay.cluster_count(), 1u);
    // The ratio can exceed 1 when churn left the maintained clustering
    // finer (tighter) than a fresh Zahn run would be; it just has to stay
    // positive and finite.
    const double quality = overlay.clustering_quality();
    EXPECT_GT(quality, 0.0);
    EXPECT_LT(quality, 100.0);

    // The active overlay stays routable between random active endpoints
    // for services the active placement still covers.
    if (step % 10 == 9) {
      NodeId a;
      NodeId b;
      do {
        a = NodeId(static_cast<int>(rng.pick_index(overlay.universe_size())));
      } while (!overlay.is_active(a));
      do {
        b = NodeId(static_cast<int>(rng.pick_index(overlay.universe_size())));
      } while (!overlay.is_active(b));
      ServiceRequest request;
      request.source = a;
      request.destination = b;
      const ServicePath path = overlay.route(request);  // relay-only
      EXPECT_TRUE(path.found);
    }
  }
  overlay.restructure();
  EXPECT_NEAR(overlay.clustering_quality(), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSweepTest,
                         ::testing::Values(611, 612, 613, 614));

// ---------------------------------------------- aggregation penalty ----

class AggregationPenaltyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AggregationPenaltyTest, AggregatedNeverBeatsFullStateOnAverage) {
  // Under the DECISION metric, HFC-without-aggregation is per-request
  // optimal among HFC-constrained paths, so the aggregated router can
  // never beat it (per request, not just on average).
  const auto fw = tiny_framework(GetParam());
  const OverlayDistance est = fw->estimated_distance();
  const HfcTopology& topo = fw->topology();
  const OverlayDistance hfc_est = [&topo, est](NodeId a, NodeId b) {
    return topo.path_distance(a, b, est);
  };
  const FlatServiceRouter noagg(fw->overlay(), hfc_est);
  Rng rng(GetParam() + 3);
  for (const ServiceRequest& request : fw->generate_requests(15, rng)) {
    const ServicePath agg_path = fw->route(request);
    const ServicePath noagg_path =
        expand_hfc_path(noagg.route(request), topo);
    ASSERT_TRUE(agg_path.found);
    ASSERT_TRUE(noagg_path.found);
    EXPECT_GE(path_length(agg_path, est),
              path_length(noagg_path, est) - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationPenaltyTest,
                         ::testing::Values(621, 622, 623, 624, 625));

// ---------------------------------------------- streaming regrafts ----

/// Incremental repair trades optimality for locality: a session tree that
/// survived churn and faults through regrafting stays within these
/// factors of a from-scratch rebuild over the same live membership
/// (DESIGN.md §15). Locating-first grafts each orphan near-optimally, so
/// its envelope is tight; clustered dissemination deliberately detours
/// through per-cluster heads (head-to-head backbone chains), which buys
/// fan-out locality at a documented cost premium.
constexpr double kRegraftCostBoundLocating = 3.0;
constexpr double kRegraftCostBoundClique = 6.0;

class StreamingRegraftSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StreamingRegraftSweep, RepairedTreeStaysNearScratchRebuild) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  std::vector<Point> pts;
  for (int blob = 0; blob < 4; ++blob) {
    for (int i = 0; i < 5; ++i) {
      pts.push_back(
          {60.0 * blob + rng.uniform_real(0, 4), rng.uniform_real(0, 4)});
    }
  }
  ServicePlacement placement(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    placement[i] = {ServiceId(static_cast<std::int32_t>(i % 3))};
  }
  for (const StreamMode mode : {StreamMode::kLocating, StreamMode::kClique}) {
    DynamicHfcOverlay overlay(pts, placement, {},
                              BorderSelection::kClosestPair);
    const OverlayNetwork& net = overlay.universe_network();
    const HfcTopology& topo = overlay.universe_topology();
    QosManager qos(net, topo, std::vector<double>(net.size(), 64.0),
                   CapacityAggregation::kOptimistic);

    FaultPlanParams fp;
    fp.horizon_ms = 500.0;
    fp.heal_fraction = 1.0;
    fp.crashes = 3;
    fp.mean_downtime_ms = 120.0;
    fp.partitions = 1;
    fp.mean_partition_ms = 100.0;
    fp.bursts = 0;
    const FaultPlan plan = FaultPlan::random(fp, topo, seed);
    std::set<NodeId> victims;
    for (const FaultEvent& event : plan.events()) {
      if (event.kind == FaultKind::kCrash) victims.insert(event.node);
    }
    NodeId source;
    std::vector<NodeId> pool;
    for (NodeId node : net.all_nodes()) {
      if (!source.valid() && victims.find(node) == victims.end()) {
        source = node;
      } else {
        pool.push_back(node);
      }
    }
    StreamScheduleParams sp;
    sp.initial_count = 10;
    sp.join_count = 3;
    sp.leave_count = 5;
    sp.horizon_ms = 500.0;
    const StreamSchedule schedule = StreamSchedule::random(pool, sp, seed);
    std::vector<ChurnEvent> deactivations;
    for (NodeId node : schedule.late_joiners()) {
      deactivations.push_back(ChurnEvent::make_deactivate(node));
    }
    (void)overlay.apply(deactivations);

    StreamingParams params;
    params.chain = {ServiceId(1)};
    params.mode = mode;
    params.repair_budget = 4;
    params.seed = seed;
    StreamingSession session(overlay, qos, {source}, params);
    FaultInjector injector(plan, topo);
    session.attach_injector(injector);
    Simulator sim;
    injector.arm(sim);
    session.start(sim, 800.0);
    schedule.arm(sim, overlay, session);
    sim.run();

    ASSERT_GT(session.regraft_count(), 0u) << "sweep exercised no regrafts";
    const StreamingSession::TreeExport exported =
        session.as_multicast_tree(0);
    ASSERT_FALSE(exported.request.destinations.empty());
    ASSERT_TRUE(tree_satisfies(exported.tree, exported.request, net));

    // branch_to stays prefix-consistent after every regraft: each node's
    // branch is its parent's branch plus itself.
    for (std::size_t n = 1; n < exported.tree.nodes.size(); ++n) {
      std::vector<ServiceHop> expected =
          exported.tree.branch_to(exported.tree.nodes[n].parent);
      expected.push_back(ServiceHop{exported.tree.nodes[n].proxy,
                                    exported.tree.nodes[n].service});
      EXPECT_EQ(exported.tree.branch_to(n), expected) << "seed " << seed;
    }

    // Cost bound vs a from-scratch rebuild over the same live membership.
    const MulticastTree scratch = build_multicast_tree(
        overlay.universe_router(), net.coord_distance_fn(), exported.request,
        [&overlay](NodeId node) { return overlay.is_active(node); });
    ASSERT_TRUE(scratch.found) << "seed " << seed;
    const double bound = mode == StreamMode::kClique
                             ? kRegraftCostBoundClique
                             : kRegraftCostBoundLocating;
    EXPECT_LE(exported.tree.cost, bound * scratch.cost + 1e-6)
        << "seed " << seed << " mode "
        << (mode == StreamMode::kClique ? "clique" : "locating");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingRegraftSweep,
                         ::testing::Values(701, 702, 703, 704, 705));

}  // namespace
}  // namespace hfc
