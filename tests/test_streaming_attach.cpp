// Attach selection on hand-built worlds. A joiner's candidates are its
// own-cluster members, exact at their direct-edge cost, plus the source
// and any cross-cluster member, pending until routed. The selection
// grafts the first candidate, in (cost, attach) order over routed costs,
// that passes the eligibility and QoS re-checks — routing a pending one
// only once its lower bound comes first. Each case below has one correct
// parent, and checks it through the joiner's branch_of.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "obs/metrics.h"
#include "qos/qos_manager.h"
#include "sim/event_queue.h"
#include "streaming/streaming_session.h"

namespace hfc {
namespace {

const ServiceId kChainService(1);
const ServiceId kOtherService(2);

NodeId node(std::int32_t id) { return NodeId(id); }

ServiceHop relay(std::int32_t id) { return ServiceHop{node(id), ServiceId{}}; }

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// A world of 4-proxy blobs: `coords` in id order, the chain's one
/// service placed on `source` only (so every source route is unique), and
/// per-proxy capacities (64 unless zeroed).
struct World {
  std::vector<Point> coords;
  NodeId source;
  std::vector<double> capacity;

  void blob(double x, double y) {
    for (const Point& p : std::vector<Point>{
             {x, y}, {x + 3.0, y}, {x, y + 3.0}, {x + 3.0, y + 3.0}}) {
      coords.push_back(p);
    }
  }
};

/// One session over `world` with the chain {kChainService} and a budget
/// of 4, its overlay, QoS ledger and simulator.
struct Harness {
  explicit Harness(const World& world)
      : overlay(world.coords, placement(world), {},
                BorderSelection::kClosestPair),
        qos(overlay.universe_network(), overlay.universe_topology(),
            world.capacity, CapacityAggregation::kOptimistic),
        session(overlay, qos, {world.source}, params()) {}

  static ServicePlacement placement(const World& world) {
    ServicePlacement out(world.coords.size(), {kOtherService});
    out[world.source.idx()] = {kChainService};
    return out;
  }

  static StreamingParams params() {
    StreamingParams p;
    p.chain = {kChainService};
    p.mode = StreamMode::kLocating;
    p.repair_budget = 4;
    return p;
  }

  [[nodiscard]] ClusterId cluster(std::int32_t id) const {
    return overlay.universe_topology().cluster_of(node(id));
  }

  DynamicHfcOverlay overlay;
  QosManager qos;
  StreamingSession session;
  Simulator sim;
};

TEST(StreamingLazyAttach, SourceNextToTheJoinerBeatsEveryMemberEdge) {
  // Blob A: the source 0, members 1, 2, 3. The joiner 4 sits 0.5 from
  // the source, nearer than any member; blob B is far away.
  World world;
  world.blob(0.0, 0.0);
  world.coords.push_back({0.5, 0.0});
  world.blob(100.0, 0.0);
  world.source = node(0);
  world.capacity.assign(world.coords.size(), 64.0);
  Harness h(world);
  ASSERT_EQ(h.cluster(4), h.cluster(0));
  ASSERT_NE(h.cluster(5), h.cluster(0));

  for (const std::int32_t m : {1, 2, 3}) h.session.subscribe(h.sim, node(m));
  const std::uint64_t routes = counter("stream.candidate_routes");
  h.session.subscribe(h.sim, node(4));

  // The members are exact at 2.5 and more; the source is pending at 0.5
  // and routes to exactly 0.5 (the chain's service on the source itself),
  // so it is routed once and wins.
  EXPECT_EQ(h.session.branch_of(0, node(4)),
            (std::vector<ServiceHop>{relay(0), ServiceHop{node(0),
                                                          kChainService},
                                     relay(4)}));
  EXPECT_EQ(counter("stream.candidate_routes") - routes, 1u);
}

TEST(StreamingLazyAttach, SaturatedOwnClusterGraftsThroughTheRoutedSource) {
  // Blob A holds the source 0; blob B (ids 4..7) holds the joiner 5 and
  // two members 6 and 7 whose zero capacity keeps them from holding an
  // uplink: subscribed, but detached. Proxy 4 is B's border toward A.
  World world;
  world.blob(0.0, 0.0);
  world.blob(100.0, 0.0);
  world.source = node(0);
  world.capacity.assign(world.coords.size(), 64.0);
  world.capacity[6] = 0.0;
  world.capacity[7] = 0.0;
  Harness h(world);
  ASSERT_EQ(h.cluster(5), h.cluster(6));
  ASSERT_EQ(h.cluster(5), h.cluster(7));
  ASSERT_NE(h.cluster(5), h.cluster(0));
  ASSERT_EQ(h.overlay.universe_topology().border(h.cluster(5), h.cluster(0)),
            node(4));

  for (const std::int32_t m : {6, 7}) {
    h.session.subscribe(h.sim, node(m));
    EXPECT_TRUE(h.session.is_member(node(m)));
    EXPECT_TRUE(h.session.branch_of(0, node(m)).empty()) << "member " << m;
  }
  h.session.subscribe(h.sim, node(5));

  // No own-cluster member is eligible, so the source is the only
  // candidate: routed across the A–B border pair, service on the source.
  const std::vector<ServiceHop> branch = h.session.branch_of(0, node(5));
  EXPECT_EQ(branch,
            (std::vector<ServiceHop>{relay(0), ServiceHop{node(0),
                                                          kChainService},
                                     relay(1), relay(4), relay(5)}));
}

TEST(StreamingLazyAttach, QosRejectedWinnerFallsThroughToTheNextCandidate) {
  // Blobs A (ids 0..3, member 1), B (ids 4..7, the joiner 5) and C
  // (ids 8..11, member 8); the source 12 sits in a far blob D. B is
  // empty of members, so the joiner's candidates are the members of A
  // and C and the source, all pending. A is nearest; its route enters B
  // through B's border 4, whose capacity is zero.
  World world;
  world.coords = {{-3.0, 0.0}, {0.0, 0.0}, {-3.0, -3.0}, {0.0, -3.0}};
  world.coords.insert(world.coords.end(),
                      {{90.0, 0.0}, {94.0, 1.0}, {94.0, 4.0}, {97.0, 2.0}});
  world.blob(94.0, 100.0);
  world.blob(-100.0, 100.0);
  world.source = node(12);
  world.capacity.assign(world.coords.size(), 64.0);
  world.capacity[4] = 0.0;
  Harness h(world);
  const HfcTopology& topo = h.overlay.universe_topology();
  ASSERT_EQ(topo.cluster_count(), 4u);
  ASSERT_EQ(topo.border(h.cluster(5), h.cluster(1)), node(4));
  ASSERT_EQ(topo.border(h.cluster(1), h.cluster(5)), node(1));
  ASSERT_EQ(topo.border(h.cluster(5), h.cluster(8)), node(6));

  h.session.subscribe(h.sim, node(1));
  h.session.subscribe(h.sim, node(8));
  ASSERT_FALSE(h.session.branch_of(0, node(1)).empty());
  ASSERT_FALSE(h.session.branch_of(0, node(8)).empty());
  const std::uint64_t routes = counter("stream.candidate_routes");
  const std::uint64_t skipped = counter("stream.candidate_routes_skipped");
  h.session.subscribe(h.sim, node(5));

  // Member 1 routes to 94.12 and wins first, but its edge claims the
  // saturated border 4. Member 8 routes to 99 through B's other border 6
  // and is grafted; the source, pending at ~217, is never routed.
  std::vector<ServiceHop> want = h.session.branch_of(0, node(8));
  want.push_back(relay(6));
  want.push_back(relay(5));
  EXPECT_EQ(h.session.branch_of(0, node(5)), want);
  EXPECT_EQ(counter("stream.candidate_routes") - routes, 2u);
  EXPECT_EQ(counter("stream.candidate_routes_skipped") - skipped, 1u);
}

}  // namespace
}  // namespace hfc
