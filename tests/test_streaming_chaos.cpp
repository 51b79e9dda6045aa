// Streaming chaos invariant harness (ISSUE 10 satellite 1): long-lived
// multicast sessions driven through seeded churn (StreamSchedule) and
// fault (FaultPlan) timelines, checked after quiesce for
//   (a) connectivity: every member reachable from the source through
//       attached edges, over live proxies only, with the full service
//       chain applied (tree_satisfies on the exported tree),
//   (b) reservations net zero once the session finishes,
//   (c) continuity 1.0 over the fault-free tail,
// and the whole scenario replays bit-for-bit: the same seed produces the
// same digest on a serial run, a re-run, and a 4-thread run.
// Also home to the HFC_STREAM_* knob negative-path tests (satellite 5).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "multicast/service_multicast.h"
#include "qos/qos_manager.h"
#include "sim/event_queue.h"
#include "streaming/stream_schedule.h"
#include "streaming/streaming_session.h"
#include "util/env.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

constexpr double kSessionHorizonMs = 1000.0;
constexpr double kFaultHorizonMs = 600.0;

/// Four well-separated blobs of five proxies; placement cycles services
/// 0..3 so every cluster hosts every service (chains always resolvable).
struct StreamWorld {
  std::vector<Point> coords;
  ServicePlacement placement;
};

StreamWorld make_world(std::uint64_t seed) {
  Rng rng(seed);
  StreamWorld w;
  for (int blob = 0; blob < 4; ++blob) {
    for (int i = 0; i < 5; ++i) {
      w.coords.push_back(
          {50.0 * blob + rng.uniform_real(0, 4), rng.uniform_real(0, 4)});
    }
  }
  w.placement.resize(w.coords.size());
  for (std::size_t i = 0; i < w.coords.size(); ++i) {
    w.placement[i] = {ServiceId(static_cast<std::int32_t>(i % 4))};
  }
  return w;
}

/// One full streaming chaos scenario for (seed, mode); asserts the
/// quiesce invariants and returns the session digest (plus the fault
/// schedule, so plan determinism is covered too).
std::string run_streaming(std::uint64_t seed, StreamMode mode) {
  const StreamWorld w = make_world(seed);
  DynamicHfcOverlay overlay(w.coords, w.placement, {},
                            BorderSelection::kClosestPair);
  const OverlayNetwork& net = overlay.universe_network();
  const HfcTopology& topo = overlay.universe_topology();
  QosManager qos(net, topo, std::vector<double>(net.size(), 64.0),
                 CapacityAggregation::kOptimistic);

  FaultPlanParams fp;
  fp.horizon_ms = kFaultHorizonMs;
  fp.heal_fraction = 1.0;  // every window closes inside the fault horizon
  fp.crashes = 2;
  fp.mean_downtime_ms = 150.0;
  fp.partitions = 1;
  fp.mean_partition_ms = 120.0;
  fp.bursts = 1;
  fp.mean_burst_ms = 100.0;
  fp.burst_loss = 0.5;
  const FaultPlan plan = FaultPlan::random(fp, topo, seed);

  // The source must survive the whole run: pick the first non-victim.
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
  sp.initial_count = 8;
  sp.join_count = 4;
  sp.leave_count = 4;
  sp.horizon_ms = kFaultHorizonMs;  // leaves quiesce before the tail
  const StreamSchedule schedule = StreamSchedule::random(pool, sp, seed);

  // Late joiners arrive through the churn path: deactivate them first.
  std::vector<ChurnEvent> deactivations;
  for (NodeId node : schedule.late_joiners()) {
    deactivations.push_back(ChurnEvent::make_deactivate(node));
  }
  (void)overlay.apply(deactivations);

  StreamingParams params;
  params.chain = {ServiceId(1)};
  params.tick_ms = 50.0;
  params.repair_delay_ms = 25.0;
  params.demand = 1.0;
  params.mode = mode;
  params.repair_budget = 4;
  params.seed = seed;
  StreamingSession session(overlay, qos, {source}, params);

  FaultInjector injector(plan, topo);
  session.attach_injector(injector);

  Simulator sim;
  injector.arm(sim);
  session.start(sim, kSessionHorizonMs);
  schedule.arm(sim, overlay, session);
  sim.run();

  // (a) Post-quiesce connectivity: every member hangs off the source
  // through attached edges over live proxies, full chain applied.
  EXPECT_EQ(injector.crashed_count(), 0u) << "seed " << seed;
  for (std::size_t t = 0; t < session.source_count(); ++t) {
    EXPECT_EQ(session.orphan_count(t), 0u) << "seed " << seed;
    EXPECT_EQ(session.unblocked_count(t), session.member_count())
        << "seed " << seed;
    const StreamingSession::TreeExport exported = session.as_multicast_tree(t);
    EXPECT_EQ(exported.request.destinations.size(), session.member_count())
        << "seed " << seed;
    EXPECT_TRUE(tree_satisfies(exported.tree, exported.request, net))
        << "seed " << seed;
    for (const MulticastTree::TreeNode& node : exported.tree.nodes) {
      EXPECT_TRUE(injector.node_up(node.proxy)) << "seed " << seed;
      EXPECT_TRUE(overlay.is_active(node.proxy)) << "seed " << seed;
    }
    // The two branch views agree after arbitrary regrafting.
    for (std::size_t d = 0; d < exported.request.destinations.size(); ++d) {
      EXPECT_EQ(exported.tree.branch_to(exported.tree.destination_leaf[d]),
                session.branch_of(t, exported.request.destinations[d]))
          << "seed " << seed;
    }
  }

  // (b) Reservation conservation: the finish at the horizon released
  // every claim the session ever made.
  EXPECT_NEAR(qos.reserved_total(), 0.0, 1e-9) << "seed " << seed;

  // (c) Fault-free tail delivers every tick to every member.
  const double quiesce = plan.last_event_ms() + 2.0 * params.repair_delay_ms;
  EXPECT_DOUBLE_EQ(session.continuity(quiesce).ratio(), 1.0)
      << "seed " << seed;
  EXPECT_GE(session.continuity().ratio(), 0.5) << "seed " << seed;

  return session.digest() + plan.serialize();
}

class StreamingChaosSuite : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void TearDown() override { set_global_threads(0); }
};

TEST_P(StreamingChaosSuite, InvariantsHoldAndReplayIsBitEqual) {
  const std::uint64_t seed = GetParam();
  set_global_threads(1);
  const std::string serial = run_streaming(seed, StreamMode::kLocating);
  const std::string replay = run_streaming(seed, StreamMode::kLocating);
  set_global_threads(4);
  const std::string threaded = run_streaming(seed, StreamMode::kLocating);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, replay) << "same-seed replay diverged, seed " << seed;
  EXPECT_EQ(serial, threaded)
      << "serial vs 4-thread run diverged, seed " << seed;
}

TEST_P(StreamingChaosSuite, CliqueModeHoldsTheSameInvariants) {
  const std::uint64_t seed = GetParam();
  set_global_threads(1);
  const std::string serial = run_streaming(seed, StreamMode::kClique);
  set_global_threads(4);
  const std::string threaded = run_streaming(seed, StreamMode::kClique);
  EXPECT_EQ(serial, threaded) << "clique-mode digest diverged, seed " << seed;
  // The two strategies build different trees: digests must differ (the
  // mode is recorded in the digest header even for identical shapes).
  EXPECT_NE(serial, run_streaming(seed, StreamMode::kLocating));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChaosSuite,
                         ::testing::Values(31u, 32u, 33u, 34u, 35u));

// ------------------------- knob negative paths (satellite 5) ----------

class StreamKnobGuard : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv("HFC_STREAM_MODE");
    unsetenv("HFC_STREAM_REPAIR_BUDGET");
    reset_env_warnings();
  }
  void TearDown() override {
    unsetenv("HFC_STREAM_MODE");
    unsetenv("HFC_STREAM_REPAIR_BUDGET");
    reset_env_warnings();
  }
};

TEST_F(StreamKnobGuard, ModeKnobParsesBothStrategies) {
  EXPECT_EQ(stream_mode_from_env(), StreamMode::kLocating);  // unset
  setenv("HFC_STREAM_MODE", "locating", 1);
  EXPECT_EQ(stream_mode_from_env(), StreamMode::kLocating);
  setenv("HFC_STREAM_MODE", "clique", 1);
  EXPECT_EQ(stream_mode_from_env(), StreamMode::kClique);
  EXPECT_EQ(env_warning_count(), 0u);
}

TEST_F(StreamKnobGuard, MalformedModeWarnsOnceAndFallsBack) {
  setenv("HFC_STREAM_MODE", "multicastish", 1);
  EXPECT_EQ(stream_mode_from_env(), StreamMode::kLocating);
  EXPECT_EQ(env_warning_count(), 1u);
  EXPECT_EQ(stream_mode_from_env(), StreamMode::kLocating);
  EXPECT_EQ(env_warning_count(), 1u) << "warning must fire once per name";
}

TEST_F(StreamKnobGuard, MalformedRepairBudgetWarnsAndFallsBack) {
  setenv("HFC_STREAM_REPAIR_BUDGET", "-3", 1);
  EXPECT_EQ(env_size_t("HFC_STREAM_REPAIR_BUDGET", 8), 8u);
  EXPECT_EQ(env_warning_count(), 1u);
  setenv("HFC_STREAM_REPAIR_BUDGET", "6", 1);
  reset_env_warnings();
  EXPECT_EQ(env_size_t("HFC_STREAM_REPAIR_BUDGET", 8), 6u);
  EXPECT_EQ(env_warning_count(), 0u);
}

}  // namespace
}  // namespace hfc
