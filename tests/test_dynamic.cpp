// Tests for the dynamic-membership extension (paper §7 future work):
// joins by the nearest-neighbour rule, leaves, clustering-quality decay,
// the re-structuring mechanism, and the incremental churn engine
// (DESIGN.md §9) — every scenario asserts the incremental overlay stays
// equivalent to the full-rebuild oracle (tests/oracle/full_rebuild.h).
#include <gtest/gtest.h>

#include <span>

#include "dynamic/dynamic_overlay.h"
#include "obs/metrics.h"
#include "oracle/full_rebuild.h"
#include "services/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

/// Two well-separated jittered grids of 9 nodes each.
std::vector<Point> two_grids(Rng& rng) {
  std::vector<Point> pts;
  for (const double base : {0.0, 100.0}) {
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        pts.push_back({base + c * 2.0 + rng.uniform_real(-0.2, 0.2),
                       base + r * 2.0 + rng.uniform_real(-0.2, 0.2)});
      }
    }
  }
  return pts;
}

ServicePlacement simple_placement(std::size_t n) {
  ServicePlacement p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = {ServiceId(static_cast<std::int32_t>(i % 4))};
  }
  return p;
}

TEST(DynamicOverlay, InitialStateMatchesFreshClustering) {
  Rng rng(81);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  EXPECT_EQ(overlay.universe_size(), 18u);
  EXPECT_EQ(overlay.active_count(), 18u);
  EXPECT_EQ(overlay.cluster_count(), 2u);
  EXPECT_NEAR(overlay.clustering_quality(), 1.0, 1e-9);
  EXPECT_EQ(overlay.mutations_since_restructure(), 0u);
}

TEST(DynamicOverlay, DeactivateShrinksActiveSet) {
  Rng rng(82);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  overlay.deactivate(NodeId(0));
  EXPECT_FALSE(overlay.is_active(NodeId(0)));
  EXPECT_EQ(overlay.active_count(), 17u);
  EXPECT_EQ(overlay.cluster_count(), 2u);
  EXPECT_EQ(overlay.mutations_since_restructure(), 1u);
  EXPECT_THROW(overlay.deactivate(NodeId(0)), std::invalid_argument);
}

TEST(DynamicOverlay, EmptiedClusterDisappears) {
  Rng rng(83);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  // Remove the entire second grid.
  for (int v = 9; v < 18; ++v) overlay.deactivate(NodeId(v));
  EXPECT_EQ(overlay.cluster_count(), 1u);
  EXPECT_EQ(overlay.active_count(), 9u);
}

TEST(DynamicOverlay, RejoinEntersNearestCluster) {
  Rng rng(84);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  overlay.deactivate(NodeId(10));
  overlay.activate(NodeId(10));
  EXPECT_TRUE(overlay.is_active(NodeId(10)));
  EXPECT_EQ(overlay.active_count(), 18u);
  // Node 10 belongs to the second grid; its nearest active neighbours are
  // there, so it must rejoin that cluster: still exactly two clusters.
  EXPECT_EQ(overlay.cluster_count(), 2u);
  EXPECT_THROW(overlay.activate(NodeId(10)), std::invalid_argument);
}

TEST(DynamicOverlay, AddProxyJoinsByProximity) {
  Rng rng(85);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  const NodeId added = overlay.add_proxy({101.0, 101.0}, {ServiceId(0)});
  EXPECT_TRUE(overlay.is_active(added));
  EXPECT_EQ(overlay.universe_size(), 19u);
  EXPECT_EQ(overlay.cluster_count(), 2u);  // joined the nearby grid
  EXPECT_THROW((void)overlay.add_proxy({1.0}, {ServiceId(0)}),
               std::invalid_argument);  // dimension mismatch
}

TEST(DynamicOverlay, RoutesWithUniverseIds) {
  Rng rng(86);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(17);
  request.graph = ServiceGraph::linear({ServiceId(1), ServiceId(2)});
  const ServicePath path = overlay.route(request);
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.hops.front().proxy, NodeId(0));
  EXPECT_EQ(path.hops.back().proxy, NodeId(17));
  for (const ServiceHop& hop : path.hops) {
    EXPECT_TRUE(overlay.is_active(hop.proxy));
  }
}

TEST(DynamicOverlay, RoutingAvoidsInactiveProxies) {
  Rng rng(87);
  const std::vector<Point> pts = two_grids(rng);
  // Give service 9 to exactly two proxies, one per grid.
  ServicePlacement placement = simple_placement(18);
  placement[2].push_back(ServiceId(9));
  std::sort(placement[2].begin(), placement[2].end());
  placement[11].push_back(ServiceId(9));
  std::sort(placement[11].begin(), placement[11].end());
  DynamicHfcOverlay overlay(pts, placement);

  ServiceRequest request;
  request.source = NodeId(0);
  request.destination = NodeId(1);
  request.graph = ServiceGraph::linear({ServiceId(9)});
  const ServicePath before = overlay.route(request);
  ASSERT_TRUE(before.found);

  // Take the local provider (node 2) down: the route must switch to the
  // remote provider (node 11) — and never touch node 2.
  overlay.deactivate(NodeId(2));
  const ServicePath after = overlay.route(request);
  ASSERT_TRUE(after.found);
  for (const ServiceHop& hop : after.hops) {
    EXPECT_NE(hop.proxy, NodeId(2));
    if (!hop.is_relay()) {
      EXPECT_EQ(hop.proxy, NodeId(11));
    }
  }

  // Take the last provider down too: the request becomes unroutable.
  overlay.deactivate(NodeId(11));
  EXPECT_FALSE(overlay.route(request).found);
}

TEST(DynamicOverlay, ChurnDecaysQualityAndRestructureRestoresIt) {
  Rng rng(88);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  // Drain most of grid 2, then rejoin its nodes after grid-1 deactivations
  // have shifted the nearest-neighbour structure: labels drift away from
  // what a fresh clustering would produce.
  for (int v = 9; v < 17; ++v) overlay.deactivate(NodeId(v));
  for (int v = 9; v < 17; ++v) overlay.activate(NodeId(v));
  // With only node 17 left of grid 2 at drain time, rejoining nodes glue
  // onto its cluster — fine — but now deactivate 17 and rejoin it too.
  const double quality_after_churn = overlay.clustering_quality();
  EXPECT_LE(quality_after_churn, 1.0 + 1e-9);

  overlay.restructure();
  EXPECT_EQ(overlay.mutations_since_restructure(), 0u);
  EXPECT_NEAR(overlay.clustering_quality(), 1.0, 1e-9);
  EXPECT_EQ(overlay.cluster_count(), 2u);
}

TEST(DynamicOverlay, CannotEmptyOverlay) {
  std::vector<Point> pts{{0, 0}, {1, 0}};
  DynamicHfcOverlay overlay(pts, simple_placement(2));
  overlay.deactivate(NodeId(0));
  EXPECT_THROW(overlay.deactivate(NodeId(1)), std::invalid_argument);
}

TEST(DynamicOverlay, RouteRequiresActiveEndpoints) {
  Rng rng(89);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  overlay.deactivate(NodeId(3));
  ServiceRequest request;
  request.source = NodeId(3);
  request.destination = NodeId(5);
  EXPECT_THROW((void)overlay.route(request), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Incremental churn vs the full-rebuild oracle (DESIGN.md §9).

constexpr int kCatalog = 6;

/// Jittered Gaussian-ish blobs on a grid — continuous coordinates, so
/// exact distance ties (the documented tie-break caveat) do not occur.
std::vector<Point> blob_universe(Rng& rng, std::size_t blobs,
                                 std::size_t per_blob) {
  std::vector<Point> pts;
  for (std::size_t b = 0; b < blobs; ++b) {
    const double cx = static_cast<double>(b % 4) * 150.0;
    const double cy = static_cast<double>(b / 4) * 150.0;
    for (std::size_t i = 0; i < per_blob; ++i) {
      pts.push_back({cx + rng.uniform_real(-6.0, 6.0),
                     cy + rng.uniform_real(-6.0, 6.0)});
    }
  }
  return pts;
}

ServicePlacement random_placement(Rng& rng, std::size_t n) {
  ServicePlacement p(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<ServiceId> services;
    const int count = rng.uniform_int(1, 3);
    for (int s = 0; s < count; ++s) {
      services.push_back(ServiceId(rng.uniform_int(0, kCatalog - 1)));
    }
    std::sort(services.begin(), services.end());
    services.erase(std::unique(services.begin(), services.end()),
                   services.end());
    p[i] = std::move(services);
  }
  return p;
}

std::vector<ServiceId> random_services(Rng& rng) {
  std::vector<ServiceId> services{ServiceId(rng.uniform_int(0, kCatalog - 1))};
  if (rng.chance(0.5)) {
    services.push_back(ServiceId(rng.uniform_int(0, kCatalog - 1)));
  }
  std::sort(services.begin(), services.end());
  services.erase(std::unique(services.begin(), services.end()),
                 services.end());
  return services;
}

/// An incremental overlay checked against the full-rebuild oracle.
struct ChurnHarness {
  DynamicHfcOverlay overlay;

  ChurnHarness(std::vector<Point> coords, ServicePlacement placement)
      : overlay(std::move(coords), std::move(placement)) {}

  /// The strict correctness bar: same partition, same border pairs, same
  /// routed paths as a from-scratch rebuild of the same active set.
  void expect_matches_full_rebuild(Rng& rng, std::size_t route_probes = 4) {
    const oracle::FullRebuild full(overlay);
    ASSERT_EQ(overlay.cluster_count(), full.cluster_count());
    EXPECT_EQ(overlay.active_partition(), full.active_partition());
    EXPECT_EQ(overlay.border_pairs(), full.border_pairs());

    std::vector<NodeId> active;
    for (std::size_t v = 0; v < overlay.universe_size(); ++v) {
      const NodeId node(static_cast<std::int32_t>(v));
      if (overlay.is_active(node)) active.push_back(node);
    }
    for (std::size_t probe = 0; probe < route_probes; ++probe) {
      ServiceRequest request;
      request.source = rng.pick(active);
      request.destination = rng.pick(active);
      request.graph = ServiceGraph::linear(random_services(rng));
      const ServicePath a = overlay.route(request);
      const ServicePath b = full.route(request);
      ASSERT_EQ(a.found, b.found);
      if (!a.found) continue;
      ASSERT_EQ(a.hops.size(), b.hops.size());
      for (std::size_t h = 0; h < a.hops.size(); ++h) {
        EXPECT_EQ(a.hops[h].proxy, b.hops[h].proxy);
        EXPECT_EQ(a.hops[h].service, b.hops[h].service);
      }
      EXPECT_NEAR(a.cost, b.cost, 1e-9);
    }
  }
};

/// 500+ mixed activate/deactivate/add events, asserting equivalence with
/// the full-rebuild oracle after every batch.
void run_churn_equivalence(std::uint64_t seed, std::size_t batch_size) {
  Rng rng(seed);
  const std::vector<Point> pts = blob_universe(rng, 6, 20);
  ChurnHarness churn(pts, random_placement(rng, pts.size()));

  std::vector<bool> active(churn.overlay.universe_size(), true);
  std::size_t active_count = active.size();
  const auto pick_with = [&](bool want) {
    std::vector<NodeId> matching;
    for (std::size_t v = 0; v < active.size(); ++v) {
      if (active[v] == want) {
        matching.push_back(NodeId(static_cast<std::int32_t>(v)));
      }
    }
    return rng.pick(matching);
  };

  std::size_t applied = 0;
  while (applied < 520) {
    std::vector<ChurnEvent> batch;
    while (batch.size() < batch_size && applied + batch.size() < 520) {
      const int roll = rng.uniform_int(0, 99);
      if (roll < 45 && active_count > active.size() / 2) {
        const NodeId victim = pick_with(true);
        batch.push_back(ChurnEvent::make_deactivate(victim));
        active[victim.idx()] = false;
        --active_count;
      } else if (roll < 90 && active_count < active.size()) {
        const NodeId joiner = pick_with(false);
        batch.push_back(ChurnEvent::make_activate(joiner));
        active[joiner.idx()] = true;
        ++active_count;
      } else {
        const Point base = rng.pick(pts);
        batch.push_back(ChurnEvent::make_add(
            {base[0] + rng.uniform_real(-4.0, 4.0),
             base[1] + rng.uniform_real(-4.0, 4.0)},
            random_services(rng)));
        active.push_back(true);
        ++active_count;
      }
    }
    applied += batch.size();
    churn.overlay.apply(batch);
    churn.expect_matches_full_rebuild(rng);
  }
  EXPECT_GE(applied, 500u);
}

TEST(ChurnEquivalence, RandomizedMixedEventsSerial) {
  set_global_threads(1);
  for (const std::uint64_t seed : {611u, 911u, 1337u}) {
    run_churn_equivalence(seed, 16);
  }
  set_global_threads(0);
}

TEST(ChurnEquivalence, RandomizedMixedEventsParallel) {
  set_global_threads(4);
  for (const std::uint64_t seed : {611u, 911u, 1337u}) {
    run_churn_equivalence(seed, 16);
  }
  set_global_threads(0);
}

TEST(ChurnEquivalence, SingleEventBatches) {
  // batch_size 1 drives the immediate-repair path of every mutation.
  run_churn_equivalence(2024, 1);
}

TEST(ChurnEquivalence, BorderNodeDeparture) {
  Rng rng(90);
  const std::vector<Point> pts = blob_universe(rng, 4, 12);
  ChurnHarness churn(pts, random_placement(rng, pts.size()));

  // Removing a stored border node forces the affected cluster pairs to
  // re-scan; the repaired pairs must match a fresh selection.
  const auto pairs = churn.overlay.border_pairs();
  ASSERT_FALSE(pairs.empty());
  obs::Counter& rescans =
      obs::MetricsRegistry::global().counter("churn.border_rescans");
  const std::uint64_t before = rescans.value();
  const NodeId border = pairs.front().first;
  churn.overlay.deactivate(border);
  EXPECT_GT(rescans.value(), before);
  churn.expect_matches_full_rebuild(rng);

  // A non-border leave must not trigger any pair re-scan.
  std::vector<NodeId> non_borders;
  for (std::size_t v = 0; v < pts.size(); ++v) {
    const NodeId node(static_cast<std::int32_t>(v));
    if (!churn.overlay.is_active(node)) continue;
    bool is_border = false;
    for (const auto& [u, w] : churn.overlay.border_pairs()) {
      if (u == node || w == node) is_border = true;
    }
    if (!is_border) {
      non_borders.push_back(node);
      break;
    }
  }
  ASSERT_FALSE(non_borders.empty());
  const std::uint64_t after_border = rescans.value();
  churn.overlay.deactivate(non_borders.front());
  EXPECT_EQ(rescans.value(), after_border);
  churn.expect_matches_full_rebuild(rng);
}

TEST(ChurnEquivalence, ClusterDeathAndRebirth) {
  Rng rng(91);
  ChurnHarness churn(two_grids(rng), simple_placement(18));

  // Drain the whole second grid: its cluster dies, border pairs to it drop.
  for (int v = 9; v < 18; ++v) {
    churn.overlay.deactivate(NodeId(v));
  }
  EXPECT_EQ(churn.overlay.cluster_count(), 1u);
  churn.expect_matches_full_rebuild(rng);

  // Rejoining nodes glue onto the surviving cluster (the join rule never
  // resurrects a dead slot) ...
  for (int v = 9; v < 18; ++v) {
    churn.overlay.activate(NodeId(v));
  }
  EXPECT_EQ(churn.overlay.cluster_count(), 1u);
  churn.expect_matches_full_rebuild(rng);

  // ... and restructure() is the rebirth mechanism: a fresh clustering
  // separates the grids again.
  churn.overlay.restructure();
  EXPECT_EQ(churn.overlay.cluster_count(), 2u);
  churn.expect_matches_full_rebuild(rng);
}

TEST(ChurnEquivalence, SingleNodeClusters) {
  Rng rng(92);
  ChurnHarness churn(two_grids(rng), simple_placement(18));
  // Shrink grid 2 to a single node: a one-member cluster whose member is
  // by definition the border of every pair involving it.
  for (int v = 9; v < 17; ++v) {
    churn.overlay.deactivate(NodeId(v));
  }
  EXPECT_EQ(churn.overlay.cluster_count(), 2u);
  churn.expect_matches_full_rebuild(rng);

  // An add next to the singleton joins its cluster.
  const std::vector<ChurnEvent> join{
      ChurnEvent::make_add({101.0, 102.0}, {ServiceId(2)})};
  churn.overlay.apply(join);
  churn.expect_matches_full_rebuild(rng);

  // Back down to one member (the border role moves to the added node),
  // then kill the cluster entirely.
  churn.overlay.deactivate(NodeId(17));
  EXPECT_EQ(churn.overlay.cluster_count(), 2u);
  churn.expect_matches_full_rebuild(rng);

  const NodeId added(18);
  churn.overlay.deactivate(added);
  EXPECT_EQ(churn.overlay.cluster_count(), 1u);
  churn.expect_matches_full_rebuild(rng);
}

TEST(ChurnEquivalence, BatchedApplyMatchesSingleEvents) {
  Rng rng(93);
  const std::vector<Point> pts = blob_universe(rng, 4, 10);
  const ServicePlacement placement = random_placement(rng, pts.size());
  DynamicHfcOverlay batched(pts, placement, {}, BorderSelection::kClosestPair);
  DynamicHfcOverlay stepped(pts, placement, {}, BorderSelection::kClosestPair);

  std::vector<ChurnEvent> events;
  for (int v = 0; v < 8; ++v) {
    events.push_back(ChurnEvent::make_deactivate(NodeId(v)));
  }
  for (int v = 0; v < 4; ++v) {
    events.push_back(ChurnEvent::make_activate(NodeId(v)));
  }
  events.push_back(ChurnEvent::make_add({12.0, 14.0}, {ServiceId(1)}));

  batched.apply(events);
  for (const ChurnEvent& event : events) {
    switch (event.kind) {
      case ChurnEvent::Kind::kActivate:
        stepped.activate(event.node);
        break;
      case ChurnEvent::Kind::kDeactivate:
        stepped.deactivate(event.node);
        break;
      case ChurnEvent::Kind::kAdd:
        (void)stepped.add_proxy(event.coords, event.services);
        break;
    }
  }
  EXPECT_EQ(batched.active_partition(), stepped.active_partition());
  EXPECT_EQ(batched.border_pairs(), stepped.border_pairs());
}

TEST(ChurnEquivalence, FailedBatchKeepsAppliedPrefixConsistent) {
  Rng rng(94);
  const std::vector<Point> pts = blob_universe(rng, 4, 10);
  ChurnHarness churn(pts, random_placement(rng, pts.size()));

  // Third event is invalid (node 1 is already active): the two valid
  // events before it must remain applied and repaired.
  std::vector<ChurnEvent> batch{ChurnEvent::make_deactivate(NodeId(0)),
                                ChurnEvent::make_deactivate(NodeId(5)),
                                ChurnEvent::make_activate(NodeId(1))};
  EXPECT_THROW(churn.overlay.apply(batch), std::invalid_argument);
  EXPECT_FALSE(churn.overlay.is_active(NodeId(0)));
  EXPECT_FALSE(churn.overlay.is_active(NodeId(5)));
  EXPECT_TRUE(churn.overlay.is_active(NodeId(1)));
  churn.expect_matches_full_rebuild(rng);
}

TEST(DynamicOverlay, ClusteringQualityMemoizedOnGeneration) {
  Rng rng(95);
  DynamicHfcOverlay overlay(two_grids(rng), simple_placement(18));
  obs::Counter& computes =
      obs::MetricsRegistry::global().counter("churn.quality_computes");

  const std::uint64_t start = computes.value();
  const double first = overlay.clustering_quality();
  EXPECT_EQ(computes.value(), start + 1);
  EXPECT_EQ(overlay.clustering_quality(), first);  // memo hit
  EXPECT_EQ(computes.value(), start + 1);

  overlay.deactivate(NodeId(4));  // generation moves → recompute once
  (void)overlay.clustering_quality();
  (void)overlay.clustering_quality();
  EXPECT_EQ(computes.value(), start + 2);
}

}  // namespace
}  // namespace hfc
