// Fault-injection subsystem (DESIGN.md §10): deterministic fault plans,
// the injector's message fates, soft-state TTL expiry, aggregate retries,
// and graceful-degradation routing around crashed proxies — including the
// brute-force acceptance sweep (a valid fallback is found whenever one
// exists, and no route ever traverses a crashed proxy).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <ostream>
#include <string>
#include <vector>

#include "cluster/zahn.h"
#include "dynamic/dynamic_overlay.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "oracle/brute_force.h"
#include "oracle/full_rebuild.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/filters.h"
#include "routing/hierarchical_router.h"
#include "routing/live_links.h"
#include "routing/service_path.h"
#include "services/workload.h"
#include "sim/event_queue.h"
#include "sim/state_protocol.h"
#include "util/rng.h"

namespace hfc {
namespace {

using oracle::brute_force_route;

std::uint64_t counter_now(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Three separated squares of three proxies each; node i hosts service i.
struct FaultWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  Clustering clustering;
  HfcTopology topo;

  FaultWorld()
      : coords(make_coords()),
        net(coords, make_placement()),
        clustering(cluster_points(coords)),
        topo(clustering, net.coord_distance_fn()) {}

  static std::vector<Point> make_coords() {
    const double bases[3][2] = {{0, 0}, {80, 0}, {40, 80}};
    const double offs[3][2] = {{0, 0}, {2, 0}, {0, 2}};
    std::vector<Point> pts;
    for (const auto& b : bases) {
      for (const auto& o : offs) pts.push_back({b[0] + o[0], b[1] + o[1]});
    }
    return pts;
  }
  static ServicePlacement make_placement() {
    ServicePlacement p(9);
    for (std::size_t i = 0; i < 9; ++i) {
      p[i] = {ServiceId(static_cast<int>(i))};
    }
    return p;
  }
};

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, RandomIsDeterministic) {
  FaultWorld w;
  FaultPlanParams params;
  params.base_loss = 0.05;
  params.jitter_ms = 2.0;
  const FaultPlan a = FaultPlan::random(params, w.topo, 42);
  const FaultPlan b = FaultPlan::random(params, w.topo, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.serialize(), b.serialize());
  const FaultPlan c = FaultPlan::random(params, w.topo, 43);
  EXPECT_NE(a, c);
}

TEST(FaultPlan, RandomWindowsCloseByHealFraction) {
  FaultWorld w;
  FaultPlanParams params;
  params.horizon_ms = 10000.0;
  params.crashes = 4;
  params.partitions = 2;
  params.bursts = 2;
  params.heal_fraction = 0.6;
  const FaultPlan plan = FaultPlan::random(params, w.topo, 7);
  const double heal_by = params.horizon_ms * params.heal_fraction;
  EXPECT_FALSE(plan.events().empty());
  for (const FaultEvent& e : plan.events()) {
    EXPECT_GE(e.time_ms, 0.0);
    EXPECT_LE(e.time_ms, heal_by) << fault_kind_name(e.kind);
  }
  EXPECT_DOUBLE_EQ(plan.last_event_ms(), plan.events().back().time_ms);
}

TEST(FaultPlan, RandomSubMillisecondHorizonStillClosesByHealBoundary) {
  // Sub-millisecond fault windows: the 1 ms span floor must be clamped by
  // the heal boundary, not applied after it, or recover/heal/burst-end
  // events land inside the fault-free reconvergence tail.
  FaultWorld w;
  FaultPlanParams params;
  params.horizon_ms = 2.0;
  params.heal_fraction = 0.5;
  params.crashes = 2;
  params.partitions = 1;
  params.bursts = 1;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultPlan plan = FaultPlan::random(params, w.topo, seed);
    EXPECT_FALSE(plan.events().empty());
    for (const FaultEvent& e : plan.events()) {
      EXPECT_LE(e.time_ms, params.horizon_ms * params.heal_fraction)
          << fault_kind_name(e.kind) << " seed " << seed;
    }
  }
}

TEST(FaultPlan, RandomBurstWindowsNeverOverlap) {
  // Huge mean spans force every draw to clamp: before slot partitioning,
  // that produced interleaved windows (start1, start2, end1, end2) and
  // serialize() threw std::logic_error for many seeds.
  FaultWorld w;
  FaultPlanParams params;
  params.bursts = 3;
  params.mean_burst_ms = 1e6;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultPlan plan = FaultPlan::random(params, w.topo, seed);
    int open = 0;
    for (const FaultEvent& e : plan.events()) {
      if (e.kind == FaultKind::kBurstStart) {
        EXPECT_EQ(open, 0) << "overlapping windows, seed " << seed;
        ++open;
      } else if (e.kind == FaultKind::kBurstEnd) {
        --open;
      }
    }
    EXPECT_EQ(open, 0) << "unclosed window, seed " << seed;
    EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan) << "seed " << seed;
  }
}

TEST(FaultPlan, SerializeSupportsInterleavedBurstWindows) {
  // Hand-written specs may interleave windows (start1, start2, end1,
  // end2). Each end pairs FIFO with the oldest open window, so the exact
  // windows survive the round trip.
  const FaultPlan plan =
      FaultPlan::parse("burst@100+400:0.5;burst@300+400:0.75;seed:1");
  const std::string spec = plan.serialize();
  EXPECT_EQ(spec, "burst@100+400:0.5;burst@300+400:0.75;seed:1");
  EXPECT_EQ(FaultPlan::parse(spec), plan);
}

TEST(FaultPlan, SerializeSupportsNestedBurstWindows) {
  // Fully nested windows (start1, start2, end2, end1): FIFO pairing emits
  // different window boundaries, but the identical event multiset — the
  // plan, and every injector decision it drives, round-trips exactly.
  const FaultPlan plan =
      FaultPlan::parse("burst@100+600:0.5;burst@300+100:0.7;seed:1");
  EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan);
}

TEST(FaultPlan, SeedRoundTripsFullU64Range) {
  // serialize() writes the seed verbatim; parse must recover any u64
  // without the INT_MAX UB / 2^53 precision loss of a double-based path.
  const FaultPlan plan =
      FaultPlan::parse("crash@5:1;seed:18446744073709551615");
  EXPECT_EQ(plan.seed(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan);
  EXPECT_EQ(FaultPlan::parse("seed:9007199254740993").seed(),
            9007199254740993ull);  // 2^53 + 1: unrepresentable as double
}

TEST(FaultPlan, LossValuesRoundTripAtFullPrecision) {
  std::vector<FaultEvent> events;
  FaultEvent open;
  open.time_ms = 100.0;
  open.kind = FaultKind::kBurstStart;
  open.loss = 0.12345678901234567;
  events.push_back(open);
  FaultEvent close;
  close.time_ms = 600.0;
  close.kind = FaultKind::kBurstEnd;
  events.push_back(close);
  const FaultPlan plan(std::move(events),
                       /*base_loss=*/0.098765432109876543,
                       /*jitter_ms=*/0.0, /*seed=*/1);
  // Bit-exact: losses serialize at max_digits10 like times, so replayed
  // Bernoulli draws see the identical probabilities.
  EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan);
}

TEST(FaultPlan, RandomFullBiasPicksOnlyBorders) {
  FaultWorld w;
  FaultPlanParams params;
  params.crashes = 6;
  params.border_bias = 1.0;
  const FaultPlan plan = FaultPlan::random(params, w.topo, 11);
  for (const FaultEvent& e : plan.events()) {
    if (e.kind == FaultKind::kCrash) {
      EXPECT_TRUE(w.topo.is_border(e.node)) << e.node.value();
    }
  }
}

TEST(FaultPlan, SerializeParseRoundTrip) {
  FaultWorld w;
  FaultPlanParams params;
  params.base_loss = 0.05;
  params.jitter_ms = 2.5;
  params.crashes = 3;
  params.partitions = 1;
  params.bursts = 2;
  const FaultPlan plan = FaultPlan::random(params, w.topo, 99);
  const FaultPlan reparsed = FaultPlan::parse(plan.serialize());
  EXPECT_EQ(plan, reparsed);
  EXPECT_EQ(plan.serialize(), reparsed.serialize());
}

TEST(FaultPlan, ParsesDocumentedExample) {
  const FaultPlan plan = FaultPlan::parse(
      "crash@500:3;recover@1700:3;partition@800:0/2;heal@2100:0/2;"
      "burst@900+400:0.8;loss:0.05;jitter:2.5;seed:42");
  ASSERT_EQ(plan.events().size(), 6u);
  // Sorted by time: crash, partition, burst open, burst close, recover, heal.
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events()[0].node, NodeId(3));
  EXPECT_DOUBLE_EQ(plan.events()[0].time_ms, 500.0);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.events()[1].a, ClusterId(0));
  EXPECT_EQ(plan.events()[1].b, ClusterId(2));
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kBurstStart);
  EXPECT_DOUBLE_EQ(plan.events()[2].loss, 0.8);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kBurstEnd);
  EXPECT_DOUBLE_EQ(plan.events()[3].time_ms, 1300.0);
  EXPECT_EQ(plan.events()[4].kind, FaultKind::kRecover);
  EXPECT_EQ(plan.events()[5].kind, FaultKind::kHeal);
  EXPECT_DOUBLE_EQ(plan.base_loss(), 0.05);
  EXPECT_DOUBLE_EQ(plan.jitter_ms(), 2.5);
  EXPECT_EQ(plan.seed(), 42u);
}

TEST(FaultPlan, ParseToleratesWhitespaceAndEmptyTokens) {
  const FaultPlan plan = FaultPlan::parse("  crash@5:1 ;; seed:7 ");
  ASSERT_EQ(plan.events().size(), 1u);
  EXPECT_EQ(plan.events()[0].node, NodeId(1));
  EXPECT_EQ(plan.seed(), 7u);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "explode@100:1",        // unknown directive
      "crash@abc:1",          // non-numeric time
      "crash@100:1.5",        // fractional node id
      "crash@100",            // missing ':'
      "crash@100:2x",         // trailing garbage
      "partition@100:0",      // missing '/b'
      "partition@100:2/2",    // identical clusters
      "burst@100:0.5",        // missing '+span'
      "burst@100+0:0.5",      // non-positive span
      "burst@100+50:1.5",     // loss outside (0,1]
      "loss:1.5",             // base loss outside [0,1)
      "jitter:-2",            // negative jitter
      "crash@-5:1",           // negative time
      "seed:abc",             // non-numeric seed
      "seed:-3",              // negative seed
      "seed:1.5",             // fractional seed
      "seed:18446744073709551616",  // above the u64 range
      "loss@99:0.25",         // plan-wide directives take no time
      "jitter@x:2",
      "seed@5:42",
      "burst@1e17+1:0.5",     // span lost to rounding at the open time
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)FaultPlan::parse(spec), std::invalid_argument) << spec;
  }
}

/// parse(spec) throws std::invalid_argument whose message names `token`.
void expect_rejected_naming(const std::string& spec, const std::string& token) {
  try {
    (void)FaultPlan::parse(spec);
    ADD_FAILURE() << "accepted '" << spec << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
        << "'" << spec << "' rejected with: " << e.what();
  }
}

TEST(FaultPlan, ParseRejectsANodeIdAboveInt32) {
  expect_rejected_naming("crash@1:3000000000", "3000000000");
}

TEST(FaultPlan, ParseRejectsAnExponentNodeIdAboveInt32) {
  expect_rejected_naming("crash@1:1e20", "1e20");
}

TEST(FaultPlan, ParseRejectsAnInfiniteNodeId) {
  expect_rejected_naming("crash@1:inf", "inf");
}

TEST(FaultPlan, ParseRejectsAClusterIdAboveInt32) {
  expect_rejected_naming("partition@1:0/2147483648", "2147483648");
}

TEST(FaultPlan, ParseRejectsANonFiniteTime) {
  expect_rejected_naming("crash@inf:3", "inf");
}

TEST(FaultPlan, ParseRejectsANonFiniteBurstSpan) {
  expect_rejected_naming("burst@1+inf:0.5", "inf");
}

TEST(FaultPlan, ParseRejectsABurstEndPastTheDoubleRange) {
  expect_rejected_naming("burst@1e308+1e308:0.5", "burst@1e308+1e308:0.5");
}

TEST(FaultPlan, ParseRejectsANonFiniteJitter) {
  expect_rejected_naming("jitter:inf", "inf");
}

TEST(FaultPlan, ParseRejectsANonFiniteLoss) {
  expect_rejected_naming("loss:nan", "nan");
  expect_rejected_naming("burst@1+5:nan", "nan");
}

TEST(FaultPlan, ParseRoundTripsTheLargestNodeId) {
  const FaultPlan plan = FaultPlan::parse("crash@1:2147483647;seed:1");
  ASSERT_EQ(plan.events().size(), 1u);
  EXPECT_EQ(plan.events()[0].node, NodeId(2147483647));
  EXPECT_EQ(FaultPlan::parse(plan.serialize()), plan);
}

TEST(FaultPlan, ConstructionSortsEventsStably) {
  FaultEvent late;
  late.time_ms = 300.0;
  late.kind = FaultKind::kCrash;
  late.node = NodeId(1);
  FaultEvent early_a;
  early_a.time_ms = 100.0;
  early_a.kind = FaultKind::kCrash;
  early_a.node = NodeId(2);
  FaultEvent early_b = early_a;
  early_b.node = NodeId(3);
  const FaultPlan plan({late, early_a, early_b});
  ASSERT_EQ(plan.events().size(), 3u);
  EXPECT_EQ(plan.events()[0].node, NodeId(2));  // same time: insertion order
  EXPECT_EQ(plan.events()[1].node, NodeId(3));
  EXPECT_EQ(plan.events()[2].node, NodeId(1));
}

TEST(FaultPlan, DefaultSeedReadsEnvironment) {
  ::setenv("HFC_FAULT_SEED", "99", 1);
  EXPECT_EQ(FaultPlan::default_seed(), 99u);
  ::unsetenv("HFC_FAULT_SEED");
  EXPECT_EQ(FaultPlan::default_seed(), 1u);
}

TEST(FaultPlan, FromEnvParsesTheSpecKnob) {
  ::unsetenv("HFC_FAULT_PLAN");
  EXPECT_TRUE(FaultPlan::from_env().events().empty());
  ::setenv("HFC_FAULT_PLAN", "", 1);
  EXPECT_TRUE(FaultPlan::from_env().events().empty());
  ::setenv("HFC_FAULT_PLAN", "crash@100:3;recover@500:3;seed:7", 1);
  const FaultPlan plan = FaultPlan::from_env();
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.seed(), 7u);
  ::setenv("HFC_FAULT_PLAN", "crash@oops", 1);
  EXPECT_THROW(FaultPlan::from_env(), std::invalid_argument);
  ::unsetenv("HFC_FAULT_PLAN");
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, CrashRecoverTogglesLiveness) {
  FaultWorld w;
  const FaultPlan plan = FaultPlan::parse("crash@100:3;recover@500:3;seed:1");
  FaultInjector injector(plan, w.topo);
  std::vector<NodeId> crashed_calls;
  std::vector<NodeId> recovered_calls;
  injector.set_on_crash([&](NodeId n) { crashed_calls.push_back(n); });
  injector.set_on_recover([&](NodeId n) { recovered_calls.push_back(n); });

  Simulator sim;
  injector.arm(sim);
  EXPECT_THROW(injector.arm(sim), std::invalid_argument);  // once-only

  std::vector<bool> up_probes;
  std::vector<std::size_t> count_probes;
  for (double t : {50.0, 200.0, 600.0}) {
    sim.schedule_at(t, [&](Simulator&) {
      up_probes.push_back(injector.node_up(NodeId(3)));
      count_probes.push_back(injector.crashed_count());
    });
  }
  sim.run();

  EXPECT_EQ(up_probes, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(count_probes, (std::vector<std::size_t>{0, 1, 0}));
  EXPECT_EQ(crashed_calls, (std::vector<NodeId>{NodeId(3)}));
  EXPECT_EQ(recovered_calls, (std::vector<NodeId>{NodeId(3)}));
  EXPECT_TRUE(injector.up_predicate()(NodeId(3)));
}

TEST(FaultInjector, PartitionDropsOnlyTheCutPair) {
  FaultWorld w;
  const ClusterId c0 = w.topo.cluster_of(NodeId(0));
  const ClusterId c1 = w.topo.cluster_of(NodeId(3));
  const FaultPlan plan = FaultPlan::parse(
      "partition@100:" + std::to_string(c0.value()) + "/" +
      std::to_string(c1.value()) + ";heal@500:" + std::to_string(c0.value()) +
      "/" + std::to_string(c1.value()) + ";seed:1");
  FaultInjector injector(plan, w.topo);
  Simulator sim;
  injector.arm(sim);

  const std::uint64_t drops_before = counter_now("fault.dropped_partition");
  std::vector<bool> fates;
  sim.schedule_at(200.0, [&](Simulator&) {
    EXPECT_TRUE(injector.partitioned(c0, c1));
    EXPECT_TRUE(injector.partitioned(c1, c0));  // unordered
    fates.push_back(injector.on_message(NodeId(0), NodeId(3)).delivered);
    fates.push_back(injector.on_message(NodeId(0), NodeId(6)).delivered);
    fates.push_back(injector.on_message(NodeId(0), NodeId(1)).delivered);
  });
  sim.schedule_at(600.0, [&](Simulator&) {
    EXPECT_FALSE(injector.partitioned(c0, c1));
    fates.push_back(injector.on_message(NodeId(0), NodeId(3)).delivered);
  });
  sim.run();

  EXPECT_EQ(fates, (std::vector<bool>{false, true, true, true}));
  EXPECT_EQ(counter_now("fault.dropped_partition") - drops_before, 1u);
}

TEST(FaultInjector, BurstWindowDropsEverything) {
  FaultWorld w;
  const FaultPlan plan = FaultPlan::parse("burst@100+400:1;seed:1");
  FaultInjector injector(plan, w.topo);
  Simulator sim;
  injector.arm(sim);

  std::vector<bool> fates;
  std::vector<double> loss_probes;
  for (double t : {50.0, 200.0, 600.0}) {
    sim.schedule_at(t, [&](Simulator&) {
      loss_probes.push_back(injector.current_burst_loss());
      fates.push_back(injector.on_message(NodeId(0), NodeId(1)).delivered);
    });
  }
  sim.run();

  EXPECT_EQ(fates, (std::vector<bool>{true, false, true}));
  EXPECT_EQ(loss_probes, (std::vector<double>{0.0, 1.0, 0.0}));
}

TEST(FaultInjector, OverlappingBurstWindowsKeepMaxLoss) {
  // Windows [100,500) at 0.5 and [300,700) at 1.0 interleave: the first
  // window's end event must not cancel the still-open second window's
  // correlated loss.
  FaultWorld w;
  const FaultPlan plan =
      FaultPlan::parse("burst@100+400:0.5;burst@300+400:1;seed:1");
  FaultInjector injector(plan, w.topo);
  Simulator sim;
  injector.arm(sim);

  std::vector<double> loss_probes;
  std::vector<bool> fates;
  for (double t : {50.0, 350.0, 600.0, 800.0}) {
    sim.schedule_at(t, [&](Simulator&) {
      loss_probes.push_back(injector.current_burst_loss());
      fates.push_back(injector.on_message(NodeId(0), NodeId(1)).delivered);
    });
  }
  sim.run();

  // 350 ms: both windows open, max wins; 600 ms: only the second remains.
  EXPECT_EQ(loss_probes, (std::vector<double>{0.0, 1.0, 1.0, 0.0}));
  EXPECT_EQ(fates, (std::vector<bool>{true, false, false, true}));
}

TEST(FaultInjector, BaseLossIsBernoulli) {
  FaultWorld w;
  const FaultPlan plan({}, /*base_loss=*/0.5, /*jitter_ms=*/0.0, /*seed=*/3);
  FaultInjector injector(plan, w.topo);
  const std::uint64_t drops_before = counter_now("fault.dropped_loss");
  std::size_t dropped = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!injector.on_message(NodeId(0), NodeId(1)).delivered) ++dropped;
  }
  EXPECT_GT(dropped, 400u);
  EXPECT_LT(dropped, 600u);
  EXPECT_EQ(counter_now("fault.dropped_loss") - drops_before, dropped);
}

TEST(FaultInjector, JitterIsBoundedAndCounted) {
  FaultWorld w;
  const FaultPlan plan({}, 0.0, /*jitter_ms=*/5.0, 3);
  FaultInjector injector(plan, w.topo);
  const std::uint64_t jittered_before = counter_now("fault.jittered");
  for (int i = 0; i < 200; ++i) {
    const MessageFate fate = injector.on_message(NodeId(0), NodeId(1));
    EXPECT_TRUE(fate.delivered);
    EXPECT_GE(fate.extra_delay_ms, 0.0);
    EXPECT_LT(fate.extra_delay_ms, 5.0);
  }
  EXPECT_EQ(counter_now("fault.jittered") - jittered_before, 200u);
}

TEST(FaultInjector, DownEndpointsCountAsDownDrops) {
  FaultWorld w;
  const FaultPlan plan = FaultPlan::parse("crash@0:0;seed:1");
  FaultInjector injector(plan, w.topo);
  Simulator sim;
  injector.arm(sim);
  sim.run();
  const std::uint64_t down_before = counter_now("fault.dropped_down");
  EXPECT_FALSE(injector.on_message(NodeId(0), NodeId(1)).delivered);
  injector.note_receiver_down();
  EXPECT_EQ(counter_now("fault.dropped_down") - down_before, 2u);
}

// -------------------------------------------------- surviving border pairs

using ClusterLinks = LiveLinkView<ClusterId, HfcTopology>;

TEST(SurvivingBorderPair, NullPredicatePassesStoredPairThrough) {
  FaultWorld w;
  const ClusterId c0 = w.topo.cluster_of(NodeId(0));
  const ClusterId c1 = w.topo.cluster_of(NodeId(3));
  const ClusterLinks view(w.topo, w.topo.distance(), nullptr);
  const CspLink link = view.link(c0, c1);
  ASSERT_TRUE(link.found);
  EXPECT_EQ(link.exit, w.topo.border(c0, c1));
  EXPECT_EQ(link.entry, w.topo.border(c1, c0));
  EXPECT_DOUBLE_EQ(link.length, w.topo.external_length(c0, c1));
  EXPECT_EQ(view.fallbacks(), 0u);
}

TEST(SurvivingBorderPair, FallsBackToClosestSurvivingPair) {
  FaultWorld w;
  const ClusterId c0 = w.topo.cluster_of(NodeId(0));
  const ClusterId c1 = w.topo.cluster_of(NodeId(3));
  const NodeId stored = w.topo.border(c0, c1);
  const auto up = [stored](NodeId n) { return n != stored; };

  const ClusterLinks view(w.topo, w.topo.distance(), up);
  const CspLink link = view.link(c0, c1);
  ASSERT_TRUE(link.found);
  EXPECT_EQ(view.fallbacks(), 1u);
  EXPECT_NE(link.exit, stored);
  EXPECT_GE(link.length, w.topo.external_length(c0, c1));

  // The fallback is exactly the closest surviving cross pair.
  const OverlayDistance d = w.net.coord_distance_fn();
  double best = std::numeric_limits<double>::infinity();
  for (NodeId a : w.topo.members(c0)) {
    if (!up(a)) continue;
    for (NodeId b : w.topo.members(c1)) {
      best = std::min(best, d(a, b));
    }
  }
  EXPECT_DOUBLE_EQ(link.length, best);
  EXPECT_DOUBLE_EQ(link.length, d(link.exit, link.entry));
}

TEST(SurvivingBorderPair, NotFoundWhenOneSideIsDark) {
  FaultWorld w;
  const ClusterId c0 = w.topo.cluster_of(NodeId(0));
  const ClusterId c1 = w.topo.cluster_of(NodeId(3));
  const ClusterLinks view(w.topo, w.topo.distance(), [&](NodeId n) {
    return w.topo.cluster_of(n) != c0;
  });
  EXPECT_FALSE(view.link(c0, c1).found);
  EXPECT_EQ(view.unreachable(), 1u);
  EXPECT_FALSE(view.link(c0, c0).found);
  EXPECT_THROW((void)view.link(c0, ClusterId(99)), std::invalid_argument);
}

TEST(BorderView, MemoizesFallbackResolution) {
  FaultWorld w;
  const ClusterId c0 = w.topo.cluster_of(NodeId(0));
  const ClusterId c1 = w.topo.cluster_of(NodeId(3));
  const NodeId stored = w.topo.border(c0, c1);
  const ClusterLinks view(w.topo, w.topo.distance(),
                          [stored](NodeId n) { return n != stored; });
  ASSERT_TRUE(view.link(c0, c1).found);
  const NodeId via = view.link(c0, c1).exit;
  EXPECT_NE(via, stored);
  EXPECT_EQ(w.topo.cluster_of(via), c0);
  EXPECT_EQ(w.topo.cluster_of(view.link(c1, c0).exit), c1);
  EXPECT_EQ(view.link(c1, c0).entry, via);
  EXPECT_TRUE(std::isfinite(view.link(c0, c1).length));
  // Re-querying the same pair (either orientation) resolves from the memo.
  (void)view.link(c0, c1);
  (void)view.link(c1, c0);
  EXPECT_EQ(view.fallbacks(), 1u);

  const ClusterLinks dark(w.topo, w.topo.distance(), [&](NodeId n) {
    return w.topo.cluster_of(n) != c1;
  });
  EXPECT_FALSE(dark.link(c0, c1).found);
  EXPECT_FALSE(dark.link(c0, c1).exit.valid());
  EXPECT_TRUE(std::isinf(dark.link(c1, c0).length));
  EXPECT_EQ(dark.unreachable(), 1u);
  EXPECT_EQ(dark.fallbacks(), 0u);

  // A routing computation publishes its view's tallies once: a relay
  // across the broken pair falls back through it exactly once.
  const HierarchicalServiceRouter router(w.net, w.topo,
                                         w.net.coord_distance_fn());
  ServiceRequest relay;
  relay.source = w.topo.members(c0).back() == stored
                     ? w.topo.members(c0).front()
                     : w.topo.members(c0).back();
  relay.destination = w.topo.members(c1).front();
  const std::uint64_t fallbacks_before = counter_now("fault.border_fallbacks");
  const auto routed = router.route_degraded(
      relay, [stored](NodeId n) { return n != stored; });
  ASSERT_TRUE(routed.path.found);
  for (const ServiceHop& hop : routed.path.hops) EXPECT_NE(hop.proxy, stored);
  EXPECT_EQ(counter_now("fault.border_fallbacks") - fallbacks_before, 1u);
}

// ------------------------------------------------------ degradation routing

/// Two squares; service 5 is only available in the far square, so routes
/// from the near square must cross the border pair.
struct CrossWorld {
  std::vector<Point> coords;
  OverlayNetwork net;
  Clustering clustering;
  HfcTopology topo;
  HierarchicalServiceRouter router;

  CrossWorld()
      : coords({{0, 0},
                {2, 0},
                {0, 2},
                {2, 2},
                {200, 0},
                {202, 0},
                {200, 2},
                {202, 2}}),
        net(coords, make_placement()),
        clustering(cluster_points(coords)),
        topo(clustering, net.coord_distance_fn()),
        router(net, topo, net.coord_distance_fn()) {}

  static ServicePlacement make_placement() {
    ServicePlacement p(8);
    for (std::size_t i = 0; i < 8; ++i) p[i] = {ServiceId(0)};
    p[5] = {ServiceId(0), ServiceId(5)};
    p[6] = {ServiceId(0), ServiceId(5)};
    return p;
  }

  ServiceRequest cross_request() const {
    ServiceRequest request;
    request.source = NodeId(0);
    request.destination = NodeId(3);
    request.graph = ServiceGraph::linear({ServiceId(5)});
    return request;
  }
};

TEST(RouteDegraded, CrashedBorderFallsBackToSurvivingPair) {
  CrossWorld w;
  const ServiceRequest request = w.cross_request();
  const ServicePath healthy = w.router.route(request);
  ASSERT_TRUE(healthy.found);

  const ClusterId cs = w.topo.cluster_of(request.source);
  const ClusterId cf = w.topo.cluster_of(NodeId(5));
  const NodeId near_border = w.topo.border(cs, cf);
  const NodeId far_border = w.topo.border(cf, cs);
  // The healthy route crosses the stored border pair.
  const auto uses = [](const ServicePath& p, NodeId n) {
    return std::any_of(p.hops.begin(), p.hops.end(),
                       [n](const ServiceHop& h) { return h.proxy == n; });
  };
  EXPECT_TRUE(uses(healthy, near_border));
  EXPECT_TRUE(uses(healthy, far_border));

  // Crash both stored borders: route_degraded finds the surviving pair.
  const std::vector<NodeId> crashed{near_border, far_border};
  const auto up = [&crashed](NodeId n) {
    return std::find(crashed.begin(), crashed.end(), n) == crashed.end();
  };
  const std::uint64_t degraded_before = counter_now("fault.degraded_requests");
  const auto degraded = w.router.route_degraded(request, up);
  ASSERT_TRUE(degraded.path.found);
  EXPECT_TRUE(satisfies(degraded.path, request, w.net));
  for (const ServiceHop& hop : degraded.path.hops) {
    EXPECT_TRUE(up(hop.proxy)) << hop.proxy.value();
  }
  EXPECT_EQ(counter_now("fault.degraded_requests") - degraded_before, 1u);
}

TEST(RouteDegraded, AvoidCrashedIsStrictlyStrongerThanAvoidFailed) {
  CrossWorld w;
  const ServiceRequest request = w.cross_request();
  const ClusterId cs = w.topo.cluster_of(request.source);
  const ClusterId cf = w.topo.cluster_of(NodeId(5));
  const NodeId near_border = w.topo.border(cs, cf);

  // avoid_failed: the border cannot *serve*, but may still relay.
  const auto failed =
      w.router.route_with_crankback(request, avoid_failed({near_border}));
  ASSERT_TRUE(failed.path.found);
  bool relays_through = false;
  for (const ServiceHop& hop : failed.path.hops) {
    if (hop.proxy == near_border) {
      EXPECT_TRUE(hop.is_relay());
      relays_through = true;
    }
  }
  EXPECT_TRUE(relays_through);

  // avoid_crashed: the border disappears entirely.
  const auto crashed =
      w.router.route_with_crankback(request, avoid_crashed({near_border}));
  ASSERT_TRUE(crashed.path.found);
  for (const ServiceHop& hop : crashed.path.hops) {
    EXPECT_NE(hop.proxy, near_border);
  }
}

TEST(RouteDegraded, UnroutableWhenEveryProviderIsDown) {
  CrossWorld w;
  const ServiceRequest request = w.cross_request();
  const auto up = [](NodeId n) { return n != NodeId(5) && n != NodeId(6); };
  const auto result = w.router.route_degraded(request, up);
  EXPECT_FALSE(result.path.found);
}

TEST(RouteDegraded, DynamicOverlayModesAgree) {
  CrossWorld w;
  DynamicHfcOverlay inc(w.coords, CrossWorld::make_placement(), {},
                        BorderSelection::kClosestPair);
  // Stir through churn before routing degraded.
  inc.deactivate(NodeId(7));
  inc.activate(NodeId(7));
  const ServiceRequest request = w.cross_request();
  const ClusterId cs = w.topo.cluster_of(request.source);
  const ClusterId cf = w.topo.cluster_of(NodeId(5));
  const NodeId near_border = w.topo.border(cs, cf);
  const auto up = [near_border](NodeId n) { return n != near_border; };

  const oracle::FullRebuild full(inc);
  const ServicePath a = inc.route_degraded(request, up);
  const ServicePath b = full.route_degraded(request, up);
  ASSERT_TRUE(a.found);
  ASSERT_TRUE(b.found);
  EXPECT_EQ(a.hops, b.hops);
  for (const ServiceHop& hop : a.hops) EXPECT_NE(hop.proxy, near_border);

  // Endpoints must themselves be up.
  EXPECT_THROW((void)inc.route_degraded(
                   request, [&](NodeId n) { return n != request.source; }),
               std::invalid_argument);
}

/// The stack a degraded sweep routes with: the flat HFC router, or the
/// multilevel router over a fixed-depth or a bounded-fanout hierarchy.
enum class SweepStack { kFlat, kLevels1, kLevels2, kLevels3, kBounded };

/// Acceptance sweep: on random worlds up to n = 200 proxies, crash sets
/// that include every stored border on the endpoints' hop path — the
/// border pair of their clusters, or both sibling-link ends at every
/// level of a hierarchy — and sometimes a whole leaf cluster. The
/// degraded router must find a valid path exactly when the brute-force
/// oracle restricted to surviving proxies finds one, within its crankback
/// budget, and must never route through a crashed proxy.
struct SweepCase {
  SweepStack stack;
  std::uint64_t seed;
};

/// "801" for the flat stack, "MultiLevel2_801" and so on for the others:
/// the value test listings name an instance by.
std::string sweep_name(const SweepCase& c) {
  static const char* const kPrefix[] = {"", "MultiLevel1_", "MultiLevel2_",
                                        "MultiLevel3_", "Bounded3x6_"};
  return kPrefix[static_cast<int>(c.stack)] + std::to_string(c.seed);
}
void PrintTo(const SweepCase& c, std::ostream* os) { *os << sweep_name(c); }

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const SweepStack stack :
       {SweepStack::kFlat, SweepStack::kLevels1, SweepStack::kLevels2,
        SweepStack::kLevels3, SweepStack::kBounded}) {
    for (std::uint64_t seed = 801; seed <= 806; ++seed) {
      cases.push_back(SweepCase{stack, seed});
    }
  }
  return cases;
}

class DegradedSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DegradedSweepTest, FallbackFoundWheneverOneExists) {
  const auto [stack, seed] = GetParam();
  Rng rng(seed);
  const std::size_t kSizes[] = {60, 200, 120};
  const std::size_t n = kSizes[seed % 3];

  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t blob = i % 5;
    pts.push_back({300.0 * static_cast<double>(blob) + rng.uniform_real(0, 8),
                   rng.uniform_real(0, 8)});
  }
  WorkloadParams wp;
  wp.catalog_size = 6;
  wp.services_per_proxy_min = 1;
  wp.services_per_proxy_max = 2;
  wp.request_length_min = 1;
  wp.request_length_max = 2;
  Rng wrng = rng.fork(1);
  const OverlayNetwork net(pts, assign_services(n, wp, wrng));
  const OverlayDistance distance = net.coord_distance_fn();

  // Either stack as (leaf clusters, hop path, degraded route).
  std::vector<std::vector<NodeId>> leaves;
  std::function<std::vector<NodeId>(NodeId, NodeId)> hop_path;
  std::function<RouteResult(const ServiceRequest&,
                            std::function<bool(NodeId)>)>
      route;
  std::unique_ptr<HfcTopology> topo;
  std::unique_ptr<HierarchicalServiceRouter> flat;
  std::unique_ptr<HfcTopology> hierarchy;
  std::unique_ptr<HierarchicalServiceRouter> multilevel;
  if (stack == SweepStack::kFlat) {
    topo = std::make_unique<HfcTopology>(cluster_points(pts), distance);
    flat = std::make_unique<HierarchicalServiceRouter>(net, *topo, distance);
    leaves = topo->clustering().members;
    hop_path = [&](NodeId a, NodeId b) { return topo->hop_path(a, b); };
    route = [&](const ServiceRequest& r, std::function<bool(NodeId)> up) {
      return flat->route_degraded(r, std::move(up), /*crankbacks=*/64);
    };
  } else {
    MultiLevelParams params = MultiLevelParams::bounded(3, 6);
    if (stack != SweepStack::kBounded) {
      params = MultiLevelParams{};
      params.levels = stack == SweepStack::kLevels1   ? 1
                      : stack == SweepStack::kLevels2 ? 2
                                                      : 3;
    }
    hierarchy = std::make_unique<HfcTopology>(pts, params);
    multilevel =
        std::make_unique<HierarchicalServiceRouter>(net, *hierarchy, distance);
    for (const ClusterId leaf : hierarchy->groups_at(1)) {
      leaves.push_back(hierarchy->members(leaf));
    }
    hop_path = [&](NodeId a, NodeId b) { return hierarchy->hop_path(a, b); };
    route = [&](const ServiceRequest& r, std::function<bool(NodeId)> up) {
      return multilevel->route_degraded(r, std::move(up), /*crankbacks=*/64);
    };
  }

  Rng rrng = rng.fork(2);
  const auto requests = make_requests(6, net.all_nodes(), wp, rrng);
  for (const ServiceRequest& request : requests) {
    // Crash every stored border between the endpoints, a few random
    // proxies, and sometimes one whole bystander leaf cluster.
    std::vector<NodeId> crashed =
        hop_path(request.source, request.destination);
    for (std::size_t i : rng.sample_indices(n, 5)) {
      crashed.push_back(NodeId(static_cast<int>(i)));
    }
    if (rng.chance(0.5)) {
      for (const std::vector<NodeId>& members : leaves) {
        const auto holds = [&members](NodeId node) {
          return std::binary_search(members.begin(), members.end(), node);
        };
        if (holds(request.source) || holds(request.destination)) continue;
        crashed.insert(crashed.end(), members.begin(), members.end());
        break;
      }
    }
    std::sort(crashed.begin(), crashed.end());
    crashed.erase(std::unique(crashed.begin(), crashed.end()), crashed.end());
    std::erase(crashed, request.source);
    std::erase(crashed, request.destination);

    const auto up = [&crashed](NodeId node) {
      return !std::binary_search(crashed.begin(), crashed.end(), node);
    };
    std::vector<NodeId> survivors;
    for (NodeId node : net.all_nodes()) {
      if (up(node)) survivors.push_back(node);
    }

    const RouteResult result = route(request, up);
    const ServicePath oracle =
        brute_force_route(request, net, distance, survivors);
    EXPECT_EQ(result.path.found, oracle.found)
        << "seed " << seed << " request " << request.graph.to_string();
    EXPECT_LE(result.crankbacks, 64u) << "seed " << seed;
    if (!result.path.found) continue;
    EXPECT_TRUE(satisfies(result.path, request, net));
    for (const ServiceHop& hop : result.path.hops) {
      EXPECT_TRUE(up(hop.proxy)) << "crashed proxy " << hop.proxy.value()
                                 << " on route, seed " << seed;
    }
    // The oracle is optimal under the same metric.
    EXPECT_GE(result.path.cost, oracle.cost - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegradedSweepTest,
                         ::testing::ValuesIn(sweep_cases()));

// ----------------------------------------------------- TTL expiry + retries

TEST(SoftStateTtl, CrashedPeerStateAgesOut) {
  FaultWorld w;
  StateProtocolParams params;
  params.local_period_ms = 100.0;
  params.aggregate_period_ms = 100.0;
  params.aggregate_phase_ms = 50.0;
  params.rounds = 6;
  params.sct_ttl_ms = 250.0;
  StateProtocolSim sim(w.net, w.topo, w.net.coord_distance_fn(), params);

  const FaultPlan plan = FaultPlan::parse("crash@120:0;seed:1");
  FaultInjector injector(plan, w.topo);
  sim.set_fault_injector(&injector);
  const std::uint64_t expired_before = counter_now("protocol.expired_entries");
  sim.run();

  // Node 0 stopped refreshing at 120ms: its row is gone from its cluster
  // peers, while rows that kept refreshing survive.
  for (NodeId peer : {NodeId(1), NodeId(2)}) {
    const ProxyStateTables& t = sim.tables(peer);
    EXPECT_EQ(t.sct_p.count(NodeId(0)), 0u) << peer.value();
    EXPECT_EQ(t.sct_p.count(NodeId(1)), 1u);
    EXPECT_EQ(t.sct_p.count(NodeId(2)), 1u);
  }
  EXPECT_GT(sim.metrics().expired_entries, 0u);
  EXPECT_GT(counter_now("protocol.expired_entries"), expired_before);
  // The chaos invariant: nothing older than the TTL survives the run.
  EXPECT_EQ(sim.stale_entries(params.sct_ttl_ms), 0u);
}

TEST(SoftStateTtl, DisabledTtlKeepsStaleEntries) {
  ::unsetenv("HFC_SCT_TTL");
  FaultWorld w;
  StateProtocolParams params;
  params.local_period_ms = 100.0;
  params.aggregate_period_ms = 100.0;
  params.aggregate_phase_ms = 50.0;
  params.rounds = 6;  // sct_ttl_ms stays at the env default: 0 = no expiry
  StateProtocolSim sim(w.net, w.topo, w.net.coord_distance_fn(), params);

  const FaultPlan plan = FaultPlan::parse("crash@120:0;seed:1");
  FaultInjector injector(plan, w.topo);
  sim.set_fault_injector(&injector);
  sim.run();

  EXPECT_EQ(sim.tables(NodeId(1)).sct_p.count(NodeId(0)), 1u);  // stale truth
  EXPECT_EQ(sim.metrics().expired_entries, 0u);
  EXPECT_GT(sim.stale_entries(250.0), 0u);
}

TEST(AggregateRetries, SilentWithoutLoss) {
  FaultWorld w;
  StateProtocolParams params;
  params.rounds = 1;
  params.aggregate_retries = 3;
  StateProtocolSim sim(w.net, w.topo, w.net.coord_distance_fn(), params);
  sim.run();
  const StateProtocolMetrics& m = sim.metrics();
  EXPECT_EQ(m.retried_messages, 0u);
  // Retry scheduling must not inflate the §4 traffic formula: still one
  // aggregate per ordered live cluster pair per round.
  const std::size_t c = w.topo.cluster_count();
  EXPECT_EQ(m.aggregate_messages, c * (c - 1));
  EXPECT_TRUE(sim.fully_converged());
}

TEST(AggregateRetries, RepairLossWithinTheRound) {
  FaultWorld w;
  const auto fraction_with = [&](std::size_t retries) {
    StateProtocolParams params;
    params.rounds = 1;
    params.loss_probability = 0.6;
    params.loss_seed = 5;
    params.aggregate_retries = retries;
    params.retry_timeout_ms = 200.0;
    StateProtocolSim sim(w.net, w.topo, w.net.coord_distance_fn(), params);
    sim.run();
    if (retries > 0) {
      EXPECT_GT(sim.metrics().retried_messages, 0u);
      const std::size_t c = w.topo.cluster_count();
      EXPECT_GT(sim.metrics().aggregate_messages, c * (c - 1));
    }
    return sim.convergence_fraction();
  };
  const double without = fraction_with(0);
  const double with = fraction_with(4);
  EXPECT_GE(with, without);
  EXPECT_GT(with, 0.0);
}

}  // namespace
}  // namespace hfc
