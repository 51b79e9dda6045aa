// The streaming session's state model on hand-built two-blob worlds.
//
// StreamingSlotReuse: a member leaves while it carries children (and, in
// clique mode, heads its cluster), then the same id subscribes again. It
// must come back as a fresh leaf: attached under the member its cluster
// elected meanwhile, carrying nobody, indexed on no stale proxy entry.
// The universe's largest id subscribes first, so the session's per-id
// tables grow on demand from the first call.
//
// StreamingDigestText: a scripted session that logs every event kind
// (start, join, attach, a born-broken attach under an open partition,
// join-detached, restore, crash, leave, finish), pinned as text. The
// literal is the digest the session produced when its event log still
// stored preformatted lines, so it shows the rendering is unchanged.
//
// FaultCrashTable: the injector's dense crash flags, which every node_up
// on the attach path reads.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "multicast/service_multicast.h"
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

/// Blob A (ids 0..3) around the origin holds the source 0, the only proxy
/// placing the chain's service; blob B (ids 4..7) sits 100 away. Proxy 4
/// is B's border toward A. Within B, 4 and 7 are each 3 from 5 and 6.
std::vector<Point> two_blobs() {
  return {{0.0, 0.0},   {3.0, 0.0},   {0.0, 3.0},   {3.0, 3.0},
          {100.0, 0.0}, {103.0, 0.0}, {100.0, 3.0}, {103.0, 3.0}};
}

/// One session with the source 0 over two_blobs(), its overlay, QoS
/// ledger and simulator.
struct Harness {
  explicit Harness(StreamMode mode)
      : overlay(two_blobs(), placement(), {}, BorderSelection::kClosestPair),
        qos(overlay.universe_network(), overlay.universe_topology(),
            std::vector<double>(8, 64.0), CapacityAggregation::kOptimistic),
        session(overlay, qos, {node(0)}, params(mode)) {}

  static ServicePlacement placement() {
    ServicePlacement out(8, {kOtherService});
    out[0] = {kChainService};
    return out;
  }

  static StreamingParams params(StreamMode mode) {
    StreamingParams p;
    p.chain = {kChainService};
    p.mode = mode;
    p.repair_budget = 4;
    return p;
  }

  [[nodiscard]] ClusterId cluster(std::int32_t id) const {
    return overlay.universe_topology().cluster_of(node(id));
  }

  /// The member `m` relays through on tree 0 (the hop before its own).
  [[nodiscard]] NodeId parent_proxy(std::int32_t m) const {
    const std::vector<ServiceHop> branch = session.branch_of(0, node(m));
    return branch.size() < 2 ? NodeId{} : branch[branch.size() - 2].proxy;
  }

  /// Tree nodes of the export whose parent is `m`'s leaf.
  [[nodiscard]] std::size_t children_in_export(std::int32_t m) const {
    const StreamingSession::TreeExport out = session.as_multicast_tree(0);
    std::size_t leaf = out.tree.nodes.size();
    for (std::size_t d = 0; d < out.request.destinations.size(); ++d) {
      if (out.request.destinations[d] == node(m)) {
        leaf = out.tree.destination_leaf[d];
      }
    }
    std::size_t n = 0;
    for (const MulticastTree::TreeNode& tn : out.tree.nodes) {
      if (tn.parent == leaf) ++n;
    }
    return n;
  }

  DynamicHfcOverlay overlay;
  QosManager qos;
  StreamingSession session;
  Simulator sim;
};

class StreamingSlotReuse : public ::testing::TestWithParam<StreamMode> {};

TEST_P(StreamingSlotReuse, RejoinedMemberComesBackAsAFreshLeaf) {
  Harness h(GetParam());
  ASSERT_NE(h.cluster(7), h.cluster(0));
  ASSERT_EQ(h.overlay.universe_topology().border(h.cluster(7), h.cluster(0)),
            node(4));

  // 7, the universe's largest id, joins first: its cluster is empty, so
  // it grafts through the routed source (and heads B in clique mode).
  // 5 and 6 then attach under it, 3 away.
  h.session.subscribe(h.sim, node(7));
  h.session.subscribe(h.sim, node(5));
  h.session.subscribe(h.sim, node(6));
  ASSERT_EQ(h.parent_proxy(5), node(7));
  ASSERT_EQ(h.parent_proxy(6), node(7));
  ASSERT_EQ(h.children_in_export(7), 2u);

  // 7 leaves: 5 regrafts through the source (and takes over the head),
  // 6 attaches under 5.
  const std::uint64_t regrafts = h.session.regraft_count();
  h.session.unsubscribe(h.sim, node(7));
  EXPECT_EQ(h.session.regraft_count() - regrafts, 2u);
  EXPECT_FALSE(h.session.is_member(node(7)));
  EXPECT_TRUE(h.session.branch_of(0, node(7)).empty());
  EXPECT_EQ(h.parent_proxy(6), node(5));

  // 7 rejoins: a leaf under 5 (nearest at 3, tied with 6; the lower id
  // wins), its branch starting at the source.
  h.session.subscribe(h.sim, node(7));
  const std::vector<ServiceHop> branch = h.session.branch_of(0, node(7));
  ASSERT_GE(branch.size(), 3u);
  EXPECT_EQ(branch.front(), relay(0));
  EXPECT_EQ(branch.back(), relay(7));
  EXPECT_EQ(h.parent_proxy(7), node(5));
  EXPECT_EQ(h.children_in_export(7), 0u);
  EXPECT_EQ(h.session.as_multicast_tree(0).request.destinations.size(),
            h.session.member_count());

  // No stale head: a new member of B attaches under 5, not the old head.
  h.session.subscribe(h.sim, node(4));
  EXPECT_EQ(h.parent_proxy(4), node(5));

  // No stale proxy entry: 7 carries nobody, so leaving again breaks and
  // regrafts no edge.
  auto& breaks = obs::MetricsRegistry::global().counter("stream.breaks_crash");
  const std::uint64_t breaks_before = breaks.value();
  const std::uint64_t regrafts_before = h.session.regraft_count();
  h.session.unsubscribe(h.sim, node(7));
  EXPECT_EQ(breaks.value(), breaks_before);
  EXPECT_EQ(h.session.regraft_count(), regrafts_before);
  EXPECT_EQ(h.session.unblocked_count(0), 3u);

  h.session.finish(h.sim);
  EXPECT_NEAR(h.qos.reserved_total(), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Modes, StreamingSlotReuse,
                         ::testing::Values(StreamMode::kLocating,
                                           StreamMode::kClique),
                         [](const auto& info) {
                           return info.param == StreamMode::kLocating
                                      ? std::string("Locating")
                                      : std::string("Clique");
                         });

/// The scripted session's digest, as the preformatted event log rendered
/// it. Timeline: 1 joins under the source and 5 across the cluster pair
/// under 1; the A–B partition opens at 10 and severs 5's edge; 6 joins at
/// 20, born broken under 1; 7 is down when it joins at 30 and stays
/// detached; 1 crashes at 40, cutting its own edge and the two it
/// carries; the heal at 50 restores none of them while 1 is down, its
/// recovery at 55 all three; 7 recovers at 58 and the repair pass at 83
/// grafts it under 6; 5 leaves at 80; the session ends at 120.
const char* const kScriptedDigest =
    "streaming mode=locating sources=1 budget=4 chain=1\n"
    "t=0x0p+0 start horizon=0x1.ep+6\n"
    "t=0x1p+0 join m=1\n"
    "t=0x1p+0 attach tree=0 m=1 parent=0 cost=0x1.8p+1\n"
    "t=0x1p+1 join m=5\n"
    "t=0x1p+1 attach tree=0 m=5 parent=1 cost=0x1.9p+6\n"
    "t=0x1.4p+4 join m=6\n"
    "t=0x1.4p+4 attach tree=0 m=6 parent=1 cost=0x1.9p+6 born-broken\n"
    "t=0x1.ep+4 join m=7\n"
    "t=0x1.ep+4 join-detached tree=0 m=7\n"
    "t=0x1.4p+5 crash p=1\n"
    "t=0x1.b8p+5 restore m=1\n"
    "t=0x1.b8p+5 restore m=5\n"
    "t=0x1.b8p+5 restore m=6\n"
    "t=0x1.4p+6 leave m=5\n"
    "t=0x1.4cp+6 attach tree=0 m=7 parent=6 cost=0x1.8p+1\n"
    "t=0x1.ep+6 finish members=3\n"
    "tree 0 source=0\n"
    "  m=1 parent=0 blocked=0 ok=1 hops=0/1,1/-1,\n"
    "  m=6 parent=1 blocked=0 ok=1 hops=1/-1,4/-1,6/-1,\n"
    "  m=7 parent=6 blocked=0 ok=1 hops=6/-1,7/-1,\n"
    "tick 0x1.9p+5 4 0\n"
    "tick 0x1.9p+6 3 3\n"
    "regrafts=1 repair_failures=0 reserved=0x0p+0\n";

TEST(StreamingDigestText, ScriptedSessionRendersEveryEventKind) {
  Harness h(StreamMode::kLocating);
  const ClusterId a = h.cluster(0);
  const ClusterId b = h.cluster(4);
  ASSERT_NE(a, b);
  std::vector<FaultEvent> events(6);
  events[0].time_ms = 5.0;
  events[0].kind = FaultKind::kCrash;
  events[0].node = node(7);
  events[1].time_ms = 10.0;
  events[1].kind = FaultKind::kPartition;
  events[1].a = a;
  events[1].b = b;
  events[2].time_ms = 40.0;
  events[2].kind = FaultKind::kCrash;
  events[2].node = node(1);
  events[3].time_ms = 50.0;
  events[3].kind = FaultKind::kHeal;
  events[3].a = a;
  events[3].b = b;
  events[4].time_ms = 55.0;
  events[4].kind = FaultKind::kRecover;
  events[4].node = node(1);
  events[5].time_ms = 58.0;
  events[5].kind = FaultKind::kRecover;
  events[5].node = node(7);
  FaultInjector injector(FaultPlan(events), h.overlay.universe_topology());
  h.session.attach_injector(injector);
  injector.arm(h.sim);
  h.session.start(h.sim, 120.0);

  const auto join_at = [&](double t, std::int32_t m) {
    h.sim.schedule_at(t, [&h, m](Simulator& s) {
      h.session.subscribe(s, node(m));
    });
  };
  join_at(1.0, 1);
  join_at(2.0, 5);
  join_at(20.0, 6);
  join_at(30.0, 7);
  h.sim.schedule_at(80.0, [&h](Simulator& s) {
    h.session.unsubscribe(s, node(5));
  });
  h.sim.run();

  const std::string digest = h.session.digest();
  for (const char* kind :
       {" start horizon=", " join m=", " attach tree=", " born-broken",
        " join-detached tree=", " restore m=", " crash p=", " leave m=",
        " finish members="}) {
    EXPECT_NE(digest.find(kind), std::string::npos) << kind;
  }
  EXPECT_EQ(digest, kScriptedDigest);
  EXPECT_NEAR(h.qos.reserved_total(), 0.0, 1e-9);
}

// A crash past the topology's last node is a malformed plan, refused
// rather than sizing the table to it.
TEST(FaultCrashTable, DuplicateCrashesCountOnceAndForeignNodesAreRefused) {
  Harness h(StreamMode::kLocating);
  FaultInjector injector(
      FaultPlan::parse("crash@1:7;crash@2:7;recover@3:7;recover@4:7;"
                       "recover@5:6"),
      h.overlay.universe_topology());
  std::vector<std::size_t> counts;
  for (double t : {1.5, 2.5, 4.5}) {
    h.sim.schedule_at(t, [&](Simulator&) {
      counts.push_back(injector.crashed_count());
    });
  }
  injector.arm(h.sim);
  h.sim.run();
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 1, 0}));
  EXPECT_TRUE(injector.node_up(node(7)));
  EXPECT_TRUE(injector.node_up(node(1000)));

  Simulator sim;
  FaultInjector foreign(FaultPlan::parse("crash@1:8"),
                        h.overlay.universe_topology());
  foreign.arm(sim);
  EXPECT_THROW(sim.run(), std::invalid_argument);
  EXPECT_EQ(foreign.crashed_count(), 0u);
}

}  // namespace
}  // namespace hfc
