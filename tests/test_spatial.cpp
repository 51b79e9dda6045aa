// Tests for src/spatial: the kd-tree index, the churn-capable
// DynamicSpatialSet, and — the load-bearing part — the exactness
// contract: every consumer (MST, Zahn, HFC borders, mesh, multilevel,
// dynamic join) must produce identical results on the brute and spatial
// paths (DESIGN.md §11). Reference answers come from tests/oracle/.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/group_pipeline.h"
#include "cluster/mst.h"
#include "cluster/zahn.h"
#include "distance/coord_distance.h"
#include "dynamic/dynamic_overlay.h"
#include "obs/metrics.h"
#include "overlay/hfc_topology.h"
#include "overlay/mesh_topology.h"
#include "overlay/overlay_network.h"
#include "routing/hierarchical_router.h"
#include "services/service_graph.h"
#include "env_guard.h"
#include "oracle/mst.h"
#include "oracle/nearest.h"
#include "spatial/dynamic_set.h"
#include "spatial/kd_tree.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

using oracle::brute_k_nearest;
using oracle::brute_nearest;
using oracle::brute_range;

std::vector<Point> random_points(std::size_t n, std::size_t dim, Rng& rng,
                                 double lo = 0.0, double hi = 100.0) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point p(dim, 0.0);
    for (double& c : p) c = rng.uniform_real(lo, hi);
    pts.push_back(std::move(p));
  }
  return pts;
}

std::vector<std::int32_t> all_ids(std::size_t n) {
  std::vector<std::int32_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::int32_t>(i);
  return ids;
}

void expect_hit_eq(const SpatialHit& got, const SpatialHit& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.dist, want.dist);  // exact: same doubles, not approximate
}

/// The full query battery against the brute reference.
void run_index_battery() {
  Rng rng(901);
  const PointSet pts = random_points(257, 3, rng);
  const auto ids = all_ids(pts.size());
  const KdTree index(pts);
  ASSERT_EQ(index.size(), pts.size());
  QueryStats stats;

  for (std::size_t t = 0; t < 60; ++t) {
    Point q(3, 0.0);
    for (double& c : q) c = rng.uniform_real(-20.0, 120.0);

    expect_hit_eq(index.nearest(
                      q, std::numeric_limits<double>::infinity(), stats),
                  brute_nearest(pts, ids, q));

    // Bounded query: the bound is inclusive.
    const double bound = rng.uniform_real(0.0, 60.0);
    expect_hit_eq(index.nearest(q, bound, stats),
                  brute_nearest(pts, ids, q, bound));

    for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                                std::size_t{17}, pts.size() + 3}) {
      const auto got = index.k_nearest(q, k, stats);
      const auto want = brute_k_nearest(pts, ids, q, k);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        expect_hit_eq(got[i], want[i]);
      }
    }

    const double radius = rng.uniform_real(0.0, 80.0);
    EXPECT_EQ(index.range(q, radius, stats), brute_range(pts, ids, q, radius));
  }
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(index.resident_bytes(), 0u);
}

void run_foreign_battery() {
  Rng rng(911);
  const PointSet pts = random_points(200, 2, rng);
  KdTree index(pts);
  std::vector<std::int32_t> labels(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    labels[i] = static_cast<std::int32_t>(i % 5);
  }
  index.retag(labels);
  QueryStats stats;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::int32_t own = labels[i];
    SpatialHit want;
    want.dist = std::numeric_limits<double>::infinity();
    want.id = std::numeric_limits<std::int32_t>::max();
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (labels[j] == own) continue;
      const double d = euclidean(pts[i], pts[j]);
      const auto id = static_cast<std::int32_t>(j);
      if (d < want.dist || (d == want.dist && id < want.id)) {
        want.dist = d;
        want.id = id;
      }
    }
    expect_hit_eq(index.nearest_foreign(
                      pts[i], own, std::numeric_limits<double>::infinity(),
                      stats),
                  want);
  }
}

void run_ties_battery() {
  // Duplicate coordinates force exact distance ties; the smallest id must
  // win, exactly like the ascending strict-`<` scan.
  PointSet pts;
  for (std::size_t i = 0; i < 40; ++i) {
    pts.push_back({static_cast<double>(i / 4), static_cast<double>(i % 2)});
  }
  const KdTree index(pts);
  const auto ids = all_ids(pts.size());
  QueryStats stats;
  for (std::size_t t = 0; t < pts.size(); ++t) {
    const std::span<const double> q = pts[t];
    expect_hit_eq(index.nearest(
                      q, std::numeric_limits<double>::infinity(), stats),
                  brute_nearest(pts, ids, q));
    const auto got = index.k_nearest(q, 7, stats);
    const auto want = brute_k_nearest(pts, ids, q, 7);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) expect_hit_eq(got[i], want[i]);
  }
}

TEST(SpatialKdTree, MatchesBruteForce) { run_index_battery(); }
TEST(SpatialKdTree, NearestForeignMatchesBrute) { run_foreign_battery(); }
TEST(SpatialKdTree, TiesResolveToSmallestId) { run_ties_battery(); }

TEST(SpatialIndexKnobs, SubsetIndexAndFilter) {
  Rng rng(921);
  const PointSet pts = random_points(120, 2, rng);
  std::vector<std::int32_t> subset;
  for (std::size_t i = 0; i < pts.size(); i += 3) {
    subset.push_back(static_cast<std::int32_t>(i));
  }
  const KdTree index(pts, subset);
  EXPECT_EQ(index.size(), subset.size());
  const auto odd_only = [](std::int32_t id, const void*) {
    return id % 2 == 1;
  };
  QueryStats stats;
  for (std::size_t t = 0; t < 30; ++t) {
    Point q(2, 0.0);
    for (double& c : q) c = rng.uniform_real(0.0, 100.0);
    expect_hit_eq(
        index.nearest(q, std::numeric_limits<double>::infinity(), stats,
                      odd_only, nullptr),
        brute_nearest(pts, subset, q,
                      std::numeric_limits<double>::infinity(), odd_only,
                      nullptr));
  }
}

// The brute-vs-index mode is chosen by the HFC_SPATIAL_MIN_N floor alone.
TEST(SpatialIndexKnobs, ModeParsing) {
  {
    EnvGuard g("HFC_SPATIAL_MIN_N", "8");
    EXPECT_EQ(spatial_min_n(), 8u);
    EXPECT_FALSE(spatial_enabled(7));
    EXPECT_TRUE(spatial_enabled(8));
  }
  {
    EnvGuard g("HFC_SPATIAL_MIN_N", kAboveAnyN);
    EXPECT_FALSE(spatial_enabled(1u << 20));
  }
  {
    // Malformed values warn once and fall back to the default floor.
    EnvGuard g("HFC_SPATIAL_MIN_N", "quadtree");
    reset_env_warnings();
    EXPECT_EQ(spatial_min_n(), 256u);
    EXPECT_EQ(spatial_min_n(), 256u);
    EXPECT_EQ(env_warning_count(), 1u);
    reset_env_warnings();
  }
}

TEST(SpatialDynamicSet, ChurnMatchesBruteScan) {
  Rng rng(931);
  const PointSet pts = random_points(300, 3, rng);
  DynamicSpatialSet set;
  std::set<std::int32_t> live;
  std::vector<std::int32_t> initial;
  for (std::size_t i = 0; i < 200; ++i) {
    initial.push_back(static_cast<std::int32_t>(i));
    live.insert(static_cast<std::int32_t>(i));
  }
  set.bulk_load(pts, initial);

  for (std::size_t round = 0; round < 40; ++round) {
    // A small batch of random inserts and erases.
    for (std::size_t m = 0; m < 8; ++m) {
      const auto id =
          static_cast<std::int32_t>(rng.uniform_int(0, 299));
      if (live.count(id) != 0) {
        set.erase(id);
        live.erase(id);
      } else {
        set.insert(id);
        live.insert(id);
      }
    }
    if (round % 4 == 0) set.maybe_rebuild();
    ASSERT_EQ(set.live_size(), live.size());
    const std::vector<std::int32_t> live_ids(live.begin(), live.end());
    ASSERT_EQ(set.live_ids(), live_ids);

    QueryStats stats;
    for (std::size_t t = 0; t < 10; ++t) {
      Point q(3, 0.0);
      for (double& c : q) c = rng.uniform_real(0.0, 100.0);
      expect_hit_eq(
          set.nearest(q, std::numeric_limits<double>::infinity(), stats),
          brute_nearest(pts, live_ids, q));
    }
  }
}

TEST(SpatialDynamicSet, BcpMatchesBruteDoubleLoop) {
  Rng rng(941);
  const PointSet pts = random_points(260, 2, rng);
  std::vector<std::int32_t> left;
  std::vector<std::int32_t> right;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    (i % 3 == 0 ? left : right).push_back(static_cast<std::int32_t>(i));
  }
  DynamicSpatialSet a;
  DynamicSpatialSet b;
  a.bulk_load(pts, left);
  b.bulk_load(pts, right);

  BcpResult want;
  for (const std::int32_t x : left) {
    for (const std::int32_t y : right) {
      const double d = euclidean(pts[static_cast<std::size_t>(x)],
                                 pts[static_cast<std::size_t>(y)]);
      if (d < want.dist) {
        want.dist = d;
        want.x = x;
        want.y = y;
      }
    }
  }
  QueryStats stats;
  const BcpResult got = bichromatic_closest_pair(a, b, pts, stats);
  EXPECT_EQ(got.x, want.x);
  EXPECT_EQ(got.y, want.y);
  EXPECT_EQ(got.dist, want.dist);
  // Orientation follows the argument order even when b is the smaller
  // enumerated side.
  const BcpResult flipped = bichromatic_closest_pair(b, a, pts, stats);
  EXPECT_EQ(flipped.x, want.y);
  EXPECT_EQ(flipped.y, want.x);
  EXPECT_EQ(flipped.dist, want.dist);
}

std::multiset<std::pair<std::size_t, std::size_t>> edge_set(
    const std::vector<MstEdge>& edges) {
  std::multiset<std::pair<std::size_t, std::size_t>> out;
  for (const MstEdge& e : edges) {
    out.insert({std::min(e.a, e.b), std::max(e.a, e.b)});
  }
  return out;
}

TEST(SpatialEquivalence, MstEdgeSetMatchesBrute) {
  Rng rng(951);
  const PointSet pts = random_points(300, 3, rng);
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  std::vector<MstEdge> brute;
  {
    EnvGuard g("HFC_SPATIAL_MIN_N", kAboveAnyN);
    brute = euclidean_mst(pts);
  }
  const std::vector<MstEdge> kd = euclidean_mst_spatial(pts);
  EXPECT_EQ(edge_set(brute), edge_set(kd));
}

TEST(SpatialEquivalence, ZahnClustersMatchBrute) {
  Rng rng(952);
  std::vector<Point> pts = random_points(150, 2, rng, 0.0, 10.0);
  const std::vector<Point> far = random_points(150, 2, rng, 200.0, 210.0);
  pts.insert(pts.end(), far.begin(), far.end());
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  Clustering brute;
  {
    EnvGuard g("HFC_SPATIAL_MIN_N", kAboveAnyN);
    brute = cluster_points(pts);
  }
  const Clustering kd = cluster_points(pts);
  EXPECT_GE(brute.cluster_count(), 2u);
  EXPECT_EQ(brute.members, kd.members);
}

/// Shared fixture state for the topology equivalence checks: one point
/// cloud, one clustering, two topologies (brute / kd-tree).
struct TopologyArms {
  std::vector<Point> pts;
  std::unique_ptr<CoordDistanceService> dist;
  Clustering clustering;
  std::unique_ptr<HfcTopology> brute;
  std::unique_ptr<HfcTopology> kd;

  explicit TopologyArms(std::uint64_t seed, std::size_t n = 240) {
    Rng rng(seed);
    pts = random_points(n / 2, 2, rng, 0.0, 20.0);
    const std::vector<Point> far =
        random_points(n - n / 2, 2, rng, 300.0, 330.0);
    pts.insert(pts.end(), far.begin(), far.end());
    dist = std::make_unique<CoordDistanceService>(pts);
    clustering = cluster_nodes(*dist);
    {
      EnvGuard g("HFC_SPATIAL_MIN_N", kAboveAnyN);
      brute = std::make_unique<HfcTopology>(clustering, *dist);
      EXPECT_FALSE(brute->spatial_active());
    }
    kd = std::make_unique<HfcTopology>(clustering, *dist);
    EXPECT_TRUE(kd->spatial_active());
  }
};

void expect_same_borders(const HfcTopology& a, const HfcTopology& b) {
  ASSERT_EQ(a.cluster_count(), b.cluster_count());
  const auto count = static_cast<std::int32_t>(a.cluster_count());
  for (std::int32_t x = 0; x < count; ++x) {
    for (std::int32_t y = 0; y < count; ++y) {
      if (x == y) continue;
      if (!a.live(ClusterId(x)) || !a.live(ClusterId(y))) continue;
      EXPECT_EQ(a.border(ClusterId(x), ClusterId(y)),
                b.border(ClusterId(x), ClusterId(y)))
          << "border(" << x << ", " << y << ")";
    }
  }
}

TEST(SpatialEquivalence, BorderPairsMatchBrute) {
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  TopologyArms arms(953);
  ASSERT_GE(arms.clustering.cluster_count(), 2u);
  expect_same_borders(*arms.brute, *arms.kd);
  EXPECT_GT(arms.kd->spatial_resident_bytes(), 0u);
}

TEST(SpatialEquivalence, ChurnRepairMatchesBrute) {
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  TopologyArms arms(954);
  Rng rng(955);
  const auto mutate = [&](HfcTopology& topo) {
    Rng local(rng.seed());  // same event stream for every arm
    std::vector<NodeId> removed;
    topo.begin_mutation_batch();
    for (std::size_t m = 0; m < 30; ++m) {
      const NodeId victim(local.uniform_int(
          0, static_cast<int>(topo.node_count()) - 1));
      if (topo.cluster_of(victim).valid() &&
          topo.members(topo.cluster_of(victim)).size() > 1) {
        topo.on_member_removed(victim);
        removed.push_back(victim);
      }
      if (!removed.empty() && local.uniform_int(0, 2) == 0) {
        const NodeId back = removed.back();
        removed.pop_back();
        // Rejoin a live cluster chosen deterministically.
        const auto count = static_cast<std::int32_t>(topo.cluster_count());
        for (std::int32_t c = 0; c < count; ++c) {
          if (topo.live(ClusterId(c))) {
            topo.on_member_added(back, ClusterId(c));
            break;
          }
        }
      }
    }
    topo.end_mutation_batch();
  };
  mutate(*arms.brute);
  mutate(*arms.kd);
  expect_same_borders(*arms.brute, *arms.kd);
}

TEST(SpatialEquivalence, MeshKnnLinksMatchBrute) {
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  Rng rng(956);
  const PointSet pts = random_points(220, 2, rng);
  const CoordDistanceService dist(pts);
  MeshParams params;
  params.random_min = 0;
  params.random_max = 0;  // spatial and brute agree exactly without extras
  const auto build = [&](const char* min_n) {
    EnvGuard g("HFC_SPATIAL_MIN_N", min_n);
    Rng mesh_rng(957);
    return MeshTopology(dist, params, mesh_rng);
  };
  const MeshTopology brute = build(kAboveAnyN);
  const MeshTopology kd = build("2");
  ASSERT_EQ(brute.node_count(), kd.node_count());
  EXPECT_EQ(brute.edge_count(), kd.edge_count());
  for (std::size_t v = 0; v < brute.node_count(); ++v) {
    const NodeId node(static_cast<std::int32_t>(v));
    auto sorted = [](std::vector<NodeId> n) {
      std::sort(n.begin(), n.end());
      return n;
    };
    EXPECT_EQ(sorted(brute.neighbors(node)), sorted(kd.neighbors(node)));
  }
  EXPECT_TRUE(kd.connected());
}

TEST(SpatialEquivalence, MultilevelHopPathsMatchBrute) {
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  Rng rng(958);
  std::vector<Point> pts = random_points(120, 2, rng, 0.0, 15.0);
  const std::vector<Point> far = random_points(120, 2, rng, 400.0, 430.0);
  pts.insert(pts.end(), far.begin(), far.end());
  MultiLevelParams params;
  params.levels = 2;
  const auto build = [&](const char* min_n) {
    EnvGuard g("HFC_SPATIAL_MIN_N", min_n);
    return HfcTopology(pts, params);
  };
  const HfcTopology brute = build(kAboveAnyN);
  const HfcTopology kd = build("2");
  ASSERT_EQ(brute.levels(), kd.levels());
  Rng pick(959);
  for (std::size_t t = 0; t < 50; ++t) {
    const NodeId a(pick.uniform_int(0, static_cast<int>(pts.size()) - 1));
    const NodeId b(pick.uniform_int(0, static_cast<int>(pts.size()) - 1));
    EXPECT_EQ(brute.hop_path(a, b), kd.hop_path(a, b));
  }
}

/// Routed-path equivalence over the spatial vs brute topologies, at the
/// given thread count (the acceptance criterion asks for serial and
/// 4-thread runs).
void run_routing_equivalence(std::size_t threads) {
  set_global_threads(threads);
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  TopologyArms arms(961);
  ServicePlacement placement(arms.pts.size());
  for (std::size_t v = 0; v < placement.size(); ++v) {
    placement[v] = {ServiceId(static_cast<std::int32_t>(v % 7))};
  }
  const OverlayNetwork net(arms.pts, placement);
  const HierarchicalServiceRouter brute(net, *arms.brute, *arms.dist);
  const HierarchicalServiceRouter kd(net, *arms.kd, *arms.dist);
  Rng rng(962);
  std::size_t found = 0;
  for (std::size_t t = 0; t < 40; ++t) {
    ServiceRequest request;
    request.source = NodeId(
        rng.uniform_int(0, static_cast<int>(arms.pts.size()) - 1));
    request.destination = NodeId(
        rng.uniform_int(0, static_cast<int>(arms.pts.size()) - 1));
    request.graph = ServiceGraph::linear({ServiceId(rng.uniform_int(0, 6))});
    const ServicePath a = brute.route(request);
    const ServicePath b = kd.route(request);
    ASSERT_EQ(a.found, b.found);
    if (!a.found) continue;
    ++found;
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t h = 0; h < a.hops.size(); ++h) {
      EXPECT_EQ(a.hops[h].proxy, b.hops[h].proxy);
    }
  }
  EXPECT_GT(found, 0u);
  set_global_threads(0);
}

TEST(TopologyScaling, RoutedPathsMatchBruteSerial) {
  run_routing_equivalence(1);
}

TEST(TopologyScaling, RoutedPathsMatchBruteFourThreads) {
  run_routing_equivalence(4);
}

TEST(TopologyScaling, DynamicChurnEquivalence) {
  EnvGuard min_n("HFC_SPATIAL_MIN_N", "2");
  Rng rng(971);
  std::vector<Point> pts = random_points(80, 2, rng, 0.0, 12.0);
  const std::vector<Point> far = random_points(80, 2, rng, 250.0, 270.0);
  pts.insert(pts.end(), far.begin(), far.end());
  ServicePlacement placement(pts.size());
  for (std::size_t v = 0; v < placement.size(); ++v) {
    placement[v] = {ServiceId(static_cast<std::int32_t>(v % 5))};
  }
  const auto run_arm = [&](const char* min_n) {
    EnvGuard g("HFC_SPATIAL_MIN_N", min_n);
    DynamicHfcOverlay overlay(pts, placement);
    Rng events(972);
    std::vector<NodeId> inactive;
    for (std::size_t round = 0; round < 12; ++round) {
      std::vector<ChurnEvent> batch;
      for (std::size_t e = 0; e < 6; ++e) {
        const bool leave = inactive.empty() || events.uniform_int(0, 1) == 0;
        if (leave && overlay.active_count() > 4) {
          NodeId victim;
          do {
            victim = NodeId(events.uniform_int(
                0, static_cast<int>(overlay.universe_size()) - 1));
          } while (!overlay.is_active(victim));
          batch.push_back(ChurnEvent::make_deactivate(victim));
          inactive.push_back(victim);
          // Mark locally so the loop above skips it next time.
          // (is_active reflects it only after apply.)
        } else if (!inactive.empty()) {
          batch.push_back(ChurnEvent::make_activate(inactive.back()));
          inactive.pop_back();
        }
      }
      // Deduplicate conflicting events inside the batch: a node picked
      // for deactivation twice would throw on the second.
      std::vector<ChurnEvent> cleaned;
      std::set<std::int32_t> touched;
      for (const ChurnEvent& ev : batch) {
        if (touched.insert(ev.node.value()).second) cleaned.push_back(ev);
      }
      overlay.apply(cleaned);
    }
    return std::make_pair(overlay.active_partition(), overlay.border_pairs());
  };
  const auto brute = run_arm(kAboveAnyN);
  const auto kd = run_arm("2");
  EXPECT_EQ(brute.first, kd.first);
  EXPECT_EQ(brute.second, kd.second);
}

TEST(SpatialRebuildBudget, KnobOverridesAdaptiveDefault) {
  {
    EnvGuard unset("HFC_SPATIAL_REBUILD_BUDGET", "0");
    EXPECT_EQ(DynamicSpatialSet::rebuild_budget(0), 32u);
    EXPECT_EQ(DynamicSpatialSet::rebuild_budget(100), 32u);
    EXPECT_EQ(DynamicSpatialSet::rebuild_budget(1000), 250u);
  }
  {
    EnvGuard guard("HFC_SPATIAL_REBUILD_BUDGET", "7");
    EXPECT_EQ(DynamicSpatialSet::rebuild_budget(0), 7u);
    EXPECT_EQ(DynamicSpatialSet::rebuild_budget(1000000), 7u);
  }
}

TEST(SpatialRebuildBudget, MalformedKnobWarnsOnceAndFallsBack) {
  EnvGuard guard("HFC_SPATIAL_REBUILD_BUDGET", "not-a-number");
  reset_env_warnings();
  EXPECT_EQ(DynamicSpatialSet::rebuild_budget(400), 100u);
  EXPECT_EQ(DynamicSpatialSet::rebuild_budget(400), 100u);
  EXPECT_EQ(env_warning_count(), 1u);
}

// A pathologically small budget forces a rebuild after almost every
// mutation; query answers must be identical to the brute scan anyway
// (the budget only schedules index folds), and the spatial.set_rebuilds
// counter must show the folds actually happened.
TEST(SpatialRebuildBudget, TinyBudgetIsExactAndRebuildsOften) {
  EnvGuard guard("HFC_SPATIAL_REBUILD_BUDGET", "1");
  Rng rng(4242);
  const std::size_t n = 300;
  PointSet pts = random_points(n, 2, rng);

  obs::Counter& rebuilds =
      obs::MetricsRegistry::global().counter("spatial.set_rebuilds");
  const std::uint64_t before = rebuilds.value();

  DynamicSpatialSet set;
  set.bulk_load(pts, all_ids(n));
  std::vector<std::int32_t> live = all_ids(n);
  for (std::size_t step = 0; step < 150; ++step) {
    const std::int32_t victim = live[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(live.size()) - 1))];
    set.erase(victim);
    live.erase(std::find(live.begin(), live.end(), victim));
    set.maybe_rebuild();

    Point q(2, 0.0);
    for (double& c : q) c = rng.uniform_real(0.0, 100.0);
    QueryStats stats;
    const SpatialHit got = set.nearest(
        q, std::numeric_limits<double>::infinity(), stats);
    const SpatialHit want = brute_nearest(pts, live, q);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.dist, want.dist);
  }
  EXPECT_GT(rebuilds.value() - before, 50u);
}

void expect_same_edges(const std::vector<MstEdge>& a,
                       const std::vector<MstEdge>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a) << "edge " << i;
    EXPECT_EQ(a[i].b, b[i].b) << "edge " << i;
    EXPECT_EQ(a[i].length, b[i].length) << "edge " << i;
  }
}

// The pruned Borůvka sweep (and the group-local pipeline built on it)
// must be bit-identical to the all-pairs Kruskal oracle — same edges in
// the same order with the same doubles, not just the same edge set — for
// any thread count, including on an exact-tie lattice where many MSTs
// are valid and only the (d, a, b) order picks one (DESIGN.md §13).
TEST(MstAlgo, PrunedMatchesRoundsBitwise) {
  Rng rng(961);
  const PointSet pts = random_points(600, 3, rng);
  const std::vector<MstEdge> want = oracle::kruskal_mst(pts);
  expect_same_edges(want, euclidean_mst_spatial(pts));
  expect_same_edges(want, euclidean_mst_grouped(pts, 64));
  set_global_threads(4);
  const std::vector<MstEdge> pruned4 = euclidean_mst_spatial(pts);
  const std::vector<MstEdge> grouped4 = euclidean_mst_grouped(pts, 64);
  set_global_threads(0);
  expect_same_edges(want, pruned4);
  expect_same_edges(want, grouped4);

  // 12 x 12 x 3 unit lattice: every nearest-neighbour distance is exactly
  // 1.0, so the tree is decided by the (a, b) tie-break alone.
  std::vector<Point> lattice;
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) {
      for (int z = 0; z < 3; ++z) {
        lattice.push_back({static_cast<double>(x), static_cast<double>(y),
                           static_cast<double>(z)});
      }
    }
  }
  const std::vector<MstEdge> lattice_want = oracle::kruskal_mst(lattice);
  expect_same_edges(lattice_want, euclidean_mst_spatial(lattice));
  expect_same_edges(lattice_want, euclidean_mst_grouped(lattice, 48));
  set_global_threads(4);
  const std::vector<MstEdge> lattice4 = euclidean_mst_grouped(lattice, 48);
  set_global_threads(0);
  expect_same_edges(lattice_want, lattice4);
}

// Tombstone-heavy churn: erase 3/4 of the set through repeated budget
// folds. Subtree rebuilds must keep answering exactly, including where
// whole subtrees die.
TEST(SpatialDynamicSet, TombstoneHeavyFoldsStayExact) {
  Rng rng(971);
  const std::size_t n = 400;
  const PointSet pts = random_points(n, 3, rng);
  DynamicSpatialSet set;
  set.bulk_load(pts, all_ids(n));
  std::vector<std::int32_t> live = all_ids(n);

  obs::Counter& folds =
      obs::MetricsRegistry::global().counter("spatial.set_folds");
  const std::uint64_t folds0 = folds.value();

  while (live.size() > n / 4) {
    const std::size_t victim_pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(live.size()) - 1));
    set.erase(live[victim_pos]);
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim_pos));
    set.maybe_rebuild();

    Point q(3, 0.0);
    for (double& c : q) c = rng.uniform_real(0.0, 100.0);
    QueryStats stats;
    expect_hit_eq(
        set.nearest(q, std::numeric_limits<double>::infinity(), stats),
        brute_nearest(pts, live, q));
  }
  EXPECT_EQ(set.live_ids(), live);
  // The default budget path must actually have gone through folds, not
  // silently fallen back to full reloads.
  EXPECT_GT(folds.value() - folds0, 0u);
}

TEST(SpatialDynamicSet, EraseAllThenReinsertStaysExact) {
  Rng rng(972);
  const std::size_t n = 96;
  const PointSet pts = random_points(n, 2, rng);
  DynamicSpatialSet set;
  set.bulk_load(pts, all_ids(n));

  for (std::size_t i = 0; i < n; ++i) {
    set.erase(static_cast<std::int32_t>(i));
    if (i % 7 == 0) set.maybe_rebuild();
  }
  EXPECT_EQ(set.live_size(), 0u);
  QueryStats stats;
  Point q(2, 50.0);
  EXPECT_FALSE(
      set.nearest(q, std::numeric_limits<double>::infinity(), stats).found());

  for (std::size_t i = 0; i < n; ++i) {
    set.insert(static_cast<std::int32_t>(i));
    if (i % 5 == 0) set.maybe_rebuild();
  }
  set.maybe_rebuild();
  EXPECT_EQ(set.live_ids(), all_ids(n));
  for (std::size_t t = 0; t < 20; ++t) {
    Point probe(2, 0.0);
    for (double& c : probe) c = rng.uniform_real(0.0, 100.0);
    expect_hit_eq(
        set.nearest(probe, std::numeric_limits<double>::infinity(), stats),
        brute_nearest(pts, all_ids(n), probe));
  }
}

// The adaptive budget is max(32, indexed/4), and maybe_rebuild folds only
// when the buffered mutation count *exceeds* it: exactly-at-budget is a
// no-op, budget+1 folds.
TEST(SpatialRebuildBudget, BoundaryIsExclusiveAtExactBudget) {
  EnvGuard unset("HFC_SPATIAL_REBUILD_BUDGET", "0");
  Rng rng(973);
  const std::size_t n = 200;
  const PointSet pts = random_points(n, 2, rng);
  const std::size_t budget = DynamicSpatialSet::rebuild_budget(n);
  ASSERT_EQ(budget, std::max<std::size_t>(32, n / 4));

  obs::Counter& rebuilds =
      obs::MetricsRegistry::global().counter("spatial.set_rebuilds");
  DynamicSpatialSet set;
  set.bulk_load(pts, all_ids(n));

  const std::uint64_t before = rebuilds.value();
  for (std::size_t i = 0; i < budget; ++i) {
    set.erase(static_cast<std::int32_t>(i));
    set.maybe_rebuild();
  }
  EXPECT_EQ(rebuilds.value(), before) << "fold at <= budget mutations";
  set.erase(static_cast<std::int32_t>(budget));
  set.maybe_rebuild();
  EXPECT_EQ(rebuilds.value(), before + 1) << "no fold at budget + 1";
}

// Randomized churn on a folding set (subtree rebuilds): after every round
// the answers must equal both a freshly bulk-loaded set over the same
// live ids (the full rebuild) and the brute scan.
TEST(SpatialDynamicSet, FoldMatchesFullRebuildUnderChurn) {
  obs::Counter& folds =
      obs::MetricsRegistry::global().counter("spatial.set_folds");
  const std::uint64_t f0 = folds.value();

  Rng rng(974);
  const std::size_t n = 350;
  const PointSet pts = random_points(n, 3, rng);
  DynamicSpatialSet set;
  set.bulk_load(pts, all_ids(n));
  std::vector<bool> live(n, true);
  for (std::size_t round = 0; round < 60; ++round) {
    for (std::size_t m = 0; m < 12; ++m) {
      const auto id =
          static_cast<std::int32_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
      if (live[static_cast<std::size_t>(id)]) {
        set.erase(id);
      } else {
        set.insert(id);
      }
      live[static_cast<std::size_t>(id)] = !live[static_cast<std::size_t>(id)];
    }
    set.maybe_rebuild();
    DynamicSpatialSet rebuilt;
    rebuilt.bulk_load(pts, set.live_ids());
    for (std::size_t t = 0; t < 4; ++t) {
      Point q(3, 0.0);
      for (double& c : q) c = rng.uniform_real(0.0, 100.0);
      QueryStats stats;
      const SpatialHit got =
          set.nearest(q, std::numeric_limits<double>::infinity(), stats);
      expect_hit_eq(got, rebuilt.nearest(
                             q, std::numeric_limits<double>::infinity(), stats));
      expect_hit_eq(got, brute_nearest(pts, set.live_ids(), q));
    }
  }
  EXPECT_GT(folds.value(), f0) << "the churned set never folded";
}

// ---------------------------------------------------------------------
// Group-local construction pipeline (DESIGN.md §14): the partitioned,
// margin-safe sweep must be bit-identical to the single global sweep —
// same edges, same order, same doubles — for any thread count and
// regardless of the partition-cell size.

std::vector<Point> blob_points(std::size_t blobs, std::size_t per_blob,
                               std::size_t dim, Rng& rng) {
  // Well-separated blobs: intra-blob spans ~2, inter-blob gaps >= ~20.
  // This is the geometry the local phase contracts almost entirely on
  // its own (margins exceed intra-blob edges), so it exercises the
  // margin-safe path rather than degenerating to the global sweep.
  std::vector<Point> pts;
  pts.reserve(blobs * per_blob);
  for (std::size_t b = 0; b < blobs; ++b) {
    Point center(dim, 0.0);
    for (double& c : center) {
      c = 25.0 * static_cast<double>(rng.uniform_int(0, 8));
    }
    for (std::size_t p = 0; p < per_blob; ++p) {
      Point q = center;
      for (double& c : q) c += rng.uniform_real(-1.0, 1.0);
      pts.push_back(std::move(q));
    }
  }
  return pts;
}

TEST(GroupPipeline, GroupedMatchesGlobalSweepBitwise) {
  Rng rng(4242);
  const PointSet pts = random_points(700, 3, rng);
  const std::vector<MstEdge> global = euclidean_mst_spatial(pts);
  for (const std::size_t limit : {48UL, 256UL, 4096UL}) {
    expect_same_edges(global, euclidean_mst_grouped(pts, limit));
  }

  set_global_threads(1);
  const std::vector<MstEdge> serial = euclidean_mst_grouped(pts, 48);
  set_global_threads(4);
  const std::vector<MstEdge> threaded = euclidean_mst_grouped(pts, 48);
  set_global_threads(0);
  expect_same_edges(global, serial);
  expect_same_edges(serial, threaded);
}

TEST(GroupPipeline, ClusteredGeometryMatchesBitwise) {
  Rng rng(777);
  const PointSet pts = blob_points(24, 40, 3, rng);
  const std::vector<MstEdge> global = euclidean_mst_spatial(pts);
  set_global_threads(1);
  const std::vector<MstEdge> grouped1 = euclidean_mst_grouped(pts, 96);
  set_global_threads(4);
  const std::vector<MstEdge> grouped4 = euclidean_mst_grouped(pts, 96);
  set_global_threads(0);
  expect_same_edges(global, grouped1);
  expect_same_edges(global, grouped4);
}

TEST(GroupPipeline, DispatchHonorsKnobs) {
  Rng rng(31337);
  const PointSet pts = random_points(400, 2, rng);
  EnvGuard spatial_floor("HFC_SPATIAL_MIN_N", "2");
  const std::vector<MstEdge> global = euclidean_mst_spatial(pts);
  {
    // Forced on below the default floor: the auto dispatch must route
    // euclidean_mst through the pipeline and still match bitwise.
    EnvGuard par_floor("HFC_ML_PAR_MIN_N", "2");
    EnvGuard group("HFC_ML_PAR_GROUP", "64");
    EXPECT_TRUE(group_pipeline_enabled(pts.size()));
    expect_same_edges(global, euclidean_mst(pts));
  }
  // Default floor: small inputs stay on the global sweep.
  EXPECT_FALSE(group_pipeline_enabled(400));
  expect_same_edges(global, euclidean_mst(pts));
  EXPECT_TRUE(group_pipeline_enabled(8192));
}

TEST(GroupPipeline, ParallelZahnCutMatchesSerial) {
  Rng rng(909);
  const PointSet pts = blob_points(12, 30, 2, rng);
  const std::vector<MstEdge> mst = euclidean_mst_spatial(pts);
  for (const ZahnStatistic stat :
       {ZahnStatistic::kMean, ZahnStatistic::kMedian}) {
    ZahnParams params;
    params.statistic = stat;
    ASSERT_FALSE(group_pipeline_enabled(pts.size()));
    const std::vector<std::size_t> serial =
        find_inconsistent_edges(pts.size(), mst, params);
    EXPECT_FALSE(serial.empty());  // blob geometry has bridge edges
    EnvGuard par_floor("HFC_ML_PAR_MIN_N", "2");
    ASSERT_TRUE(group_pipeline_enabled(pts.size()));
    set_global_threads(4);
    const std::vector<std::size_t> parallel =
        find_inconsistent_edges(pts.size(), mst, params);
    set_global_threads(0);
    EXPECT_EQ(serial, parallel);
  }
}

// The group-scoped entry points must answer over a churned, tombstone-
// heavy set exactly as over the same subset presented alone — the seam
// multilevel per-group repair flows through.
TEST(GroupPipeline, SetScopedEntriesExactUnderTombstoneHeavyChurn) {
  Rng rng(5150);
  const PointSet pts = blob_points(10, 48, 3, rng);
  std::vector<std::int32_t> ids(pts.size());
  std::iota(ids.begin(), ids.end(), 0);
  DynamicSpatialSet set;
  set.bulk_load(pts, ids);
  // Erase over half the set and resurrect a slice, never folding: the
  // mutation buffers stay tombstone-heavy relative to the index.
  for (std::size_t i = 0; i < pts.size(); i += 2) {
    set.erase(static_cast<std::int32_t>(i));
  }
  for (std::size_t i = 0; i < pts.size(); i += 8) {
    set.insert(static_cast<std::int32_t>(i));
  }
  const std::vector<std::int32_t> live = set.live_ids();
  const PointSet sub = pts.subset(live);

  EnvGuard spatial_floor("HFC_SPATIAL_MIN_N", "2");
  EnvGuard par_floor("HFC_ML_PAR_MIN_N", "2");
  EnvGuard group("HFC_ML_PAR_GROUP", "48");

  set_global_threads(1);
  const std::vector<MstEdge> mst1 = euclidean_mst_of_set(set, pts);
  const Clustering clusters1 = cluster_set(set, pts);
  set_global_threads(4);
  const std::vector<MstEdge> mst4 = euclidean_mst_of_set(set, pts);
  const Clustering clusters4 = cluster_set(set, pts);
  set_global_threads(0);

  // Oracle: the same subset solved standalone, remapped through the
  // (ascending, order-preserving) live-id list.
  std::vector<MstEdge> expected = euclidean_mst(sub);
  for (MstEdge& e : expected) {
    e.a = static_cast<std::size_t>(live[e.a]);
    e.b = static_cast<std::size_t>(live[e.b]);
  }
  expect_same_edges(expected, mst1);
  expect_same_edges(mst1, mst4);

  const Clustering local = cluster_points(sub);
  ASSERT_EQ(clusters1.cluster_count(), local.cluster_count());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(clusters1.assignment[static_cast<std::size_t>(live[i])],
              local.assignment[i]);
  }
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (!set.contains(static_cast<std::int32_t>(v))) {
      EXPECT_FALSE(clusters1.assignment[v].valid());
    }
  }
  ASSERT_EQ(clusters1.cluster_count(), clusters4.cluster_count());
  for (std::size_t v = 0; v < pts.size(); ++v) {
    EXPECT_EQ(clusters1.assignment[v], clusters4.assignment[v]);
  }
  EXPECT_EQ(clusters1.members, clusters4.members);
}

// KdTree and DynamicSpatialSet keep a pointer to their PointSet, so
// binding either to a temporary — including the one a Point list would
// convert to — must not compile.
template <class Coords>
concept BulkLoadable = requires(DynamicSpatialSet set, Coords&& coords) {
  set.bulk_load(std::forward<Coords>(coords), std::vector<std::int32_t>{});
};
static_assert(std::is_constructible_v<KdTree, const PointSet&>);
static_assert(!std::is_constructible_v<KdTree, PointSet&&>);
static_assert(!std::is_constructible_v<KdTree, const std::vector<Point>&>);
static_assert(BulkLoadable<const PointSet&>);
static_assert(!BulkLoadable<PointSet&&>);
static_assert(!BulkLoadable<const std::vector<Point>&>);

// The add_node path: a set bound to a PointSet that keeps growing past
// its capacity — every reallocation moves the rows under the set's index
// — still answers exactly as the brute scan over the same live ids.
TEST(SpatialDynamicSet, GrowingPointSet) {
  Rng rng(6121);
  PointSet pts = random_points(64, 3, rng);
  std::vector<std::int32_t> live = all_ids(pts.size());
  DynamicSpatialSet set;
  set.bulk_load(pts, live);
  const double* first_block = pts.row(0).data();
  QueryStats stats;
  while (pts.size() < 600) {
    const auto id = static_cast<std::int32_t>(pts.size());
    pts.push_back(random_points(1, 3, rng).front());
    set.insert(id);
    live.push_back(id);
    if (id % 3 == 0) {
      const std::size_t victim = rng.pick_index(live.size());
      set.erase(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    set.maybe_rebuild();
    std::vector<std::int32_t> sorted = live;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(set.live_ids(), sorted);
    for (std::size_t t = 0; t < 4; ++t) {
      const Point q = random_points(1, 3, rng).front();
      expect_hit_eq(set.nearest(q, std::numeric_limits<double>::infinity(),
                                stats),
                    brute_nearest(pts, sorted, q));
      const auto joiner = pts[static_cast<std::size_t>(id)];
      expect_hit_eq(set.nearest(joiner, 30.0, stats),
                    brute_nearest(pts, sorted, joiner, 30.0));
    }
  }
  EXPECT_NE(pts.row(0).data(), first_block);  // the block did move
}

TEST(SpatialDynamicSet, NearestForeignMatchesManualScan) {
  Rng rng(6021);
  for (const std::size_t n : {20UL, 90UL}) {  // brute tier and index tier
    const PointSet pts = random_points(n, 2, rng);
    std::vector<std::int32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    DynamicSpatialSet set;
    set.bulk_load(pts, ids);
    std::vector<std::int32_t> labels(n);
    for (std::size_t v = 0; v < n; ++v) {
      labels[v] = static_cast<std::int32_t>(v % 5);
    }
    set.retag(labels);
    QueryStats stats;
    for (std::size_t v = 0; v < n; ++v) {
      const SpatialHit hit =
          set.nearest_foreign(pts[v], labels[v], 1e18, stats);
      std::int32_t want = -1;
      double want_d = std::numeric_limits<double>::infinity();
      for (std::size_t u = 0; u < n; ++u) {
        if (labels[u] == labels[v]) continue;
        const double d = euclidean(pts[v], pts[u]);
        if (d < want_d) {
          want_d = d;
          want = static_cast<std::int32_t>(u);
        }
      }
      ASSERT_TRUE(hit.found());
      EXPECT_EQ(hit.id, want);
      EXPECT_EQ(hit.dist, want_d);
    }
  }
}

}  // namespace
}  // namespace hfc
