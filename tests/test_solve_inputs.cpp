// Tests for the inputs the hierarchical router's solves read in place.
//
// DecisionCoordinates: a router built from the coordinate tier (its leaf
// solves read coordinate rows) routes exactly as one built from an opaque
// function around the same tier — same hops, same cost bits, same
// crankbacks — through route, route_with_crankback under a node filter
// and route_degraded, at depth 1 and on bounded-fanout trees.
//
// CandidateRanks: every parent's per-service candidate rank lists equal
// a scan of its children (tests/oracle/candidate_ranks.h) after
// construction, churn batches, joins, restructuring, snapshot clones and
// SCT_C overrides, and an override at depth three reaches the root.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/zahn.h"
#include "distance/coord_distance.h"
#include "dynamic/dynamic_overlay.h"
#include "oracle/candidate_ranks.h"
#include "overlay/hfc_topology.h"
#include "routing/filters.h"
#include "routing/hierarchical_router.h"
#include "serve/route_snapshot.h"
#include "services/service_graph.h"
#include "util/rng.h"

namespace hfc {
namespace {

constexpr int kCatalog = 10;

std::uint64_t bits_of(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

std::vector<Point> blobs(std::size_t n, Rng& rng) {
  const double centers[5][2] = {
      {0, 0}, {150, 0}, {0, 150}, {150, 150}, {75, 300}};
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centers[i % 5];
    pts.push_back({c[0] + rng.uniform_real(-10.0, 10.0),
                   c[1] + rng.uniform_real(-10.0, 10.0)});
  }
  return pts;
}

std::vector<ServiceId> random_services(Rng& rng, int max_count) {
  std::set<std::int32_t> own;
  const int count = rng.uniform_int(1, max_count);
  for (int k = 0; k < count; ++k) {
    own.insert(rng.uniform_int(0, kCatalog - 1));
  }
  std::vector<ServiceId> out;
  for (const std::int32_t s : own) out.push_back(ServiceId(s));
  return out;
}

ServicePlacement random_placement(std::size_t n, Rng& rng, int max_count) {
  ServicePlacement p(n);
  for (auto& row : p) row = random_services(rng, max_count);
  return p;
}

/// A proxy in three hosts one service, the rest none: clusters then hold
/// a service through one or two members, so churn moves them in and out
/// of its candidates.
ServicePlacement sparse_placement(std::size_t n, Rng& rng) {
  ServicePlacement p(n);
  for (auto& row : p) {
    if (rng.chance(0.3)) row = {ServiceId(rng.uniform_int(0, kCatalog - 1))};
  }
  return p;
}

ServiceRequest random_request(Rng& rng, const std::vector<NodeId>& endpoints,
                              int max_length) {
  ServiceRequest req;
  req.source = rng.pick(endpoints);
  do {
    req.destination = rng.pick(endpoints);
  } while (req.destination == req.source);
  std::vector<ServiceId> chain;
  const int length = rng.uniform_int(1, max_length);
  for (int k = 0; k < length; ++k) {
    chain.push_back(ServiceId(rng.uniform_int(0, kCatalog - 1)));
  }
  req.graph = ServiceGraph::linear(chain);
  return req;
}

/// A world decided under the coordinate tier, with one router reading the
/// tier's rows and one calling an opaque function around the tier.
struct TierWorld {
  std::vector<Point> pts;
  CoordDistanceService tier;
  OverlayNetwork net;
  HfcTopology topo;
  HierarchicalServiceRouter rows;
  HierarchicalServiceRouter opaque;

  /// Depth 1 when `fanout` is 0, else bounded(fanout, leaf_limit).
  TierWorld(std::size_t n, Rng& rng, std::size_t fanout,
            std::size_t leaf_limit)
      : pts(blobs(n, rng)),
        tier(pts),
        net(pts, random_placement(n, rng, 3)),
        topo(fanout == 0
                 ? HfcTopology(cluster_points(tier.coords()), tier)
                 : HfcTopology(tier.coords(),
                               MultiLevelParams::bounded(fanout, leaf_limit))),
        rows(net, topo, tier),
        opaque(net, topo,
               OverlayDistance([fn = tier.fn()](NodeId a, NodeId b) {
                 return fn(a, b);
               })) {}
};

void expect_same(const RouteResult& got, const RouteResult& want,
                 const std::string& where) {
  ASSERT_EQ(got.path.found, want.path.found) << where;
  EXPECT_EQ(got.path.hops, want.path.hops) << where;
  EXPECT_EQ(bits_of(got.path.cost), bits_of(want.path.cost)) << where;
  EXPECT_EQ(got.crankbacks, want.crankbacks) << where;
}

/// Routes of both routers over random worlds, n in [40, 300], with the
/// proxies a quarter of the time unable to serve and, separately, crashed.
void check_worlds(std::size_t fanout, std::size_t leaf_limit,
                  std::uint64_t seed_base) {
  std::size_t found = 0;
  std::size_t cranked = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed_base + seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(40, 300));
    const TierWorld w(n, rng, fanout, leaf_limit);
    if (fanout != 0) {
      ASSERT_GE(w.topo.levels(), 2u);
    }
    std::vector<NodeId> down;
    std::vector<NodeId> up;
    for (const NodeId node : w.net.all_nodes()) {
      (rng.chance(0.25) ? down : up).push_back(node);
    }
    RoutingFilters refusing;
    refusing.node_ok = exclude_nodes(down);
    const RoutingFilters crashed = avoid_crashed(down);
    for (int r = 0; r < 30; ++r) {
      const ServiceRequest req = random_request(rng, up, 4);
      const std::string where =
          "seed " + std::to_string(seed) + ", request " + std::to_string(r);
      const ServicePath plain = w.rows.route(req);
      const ServicePath plain_opaque = w.opaque.route(req);
      expect_same(RouteResult{plain, 0}, RouteResult{plain_opaque, 0},
                  where + ", route");
      found += plain.found ? 1 : 0;
      const RouteResult filtered = w.rows.route_with_crankback(req, refusing);
      expect_same(filtered, w.opaque.route_with_crankback(req, refusing),
                  where + ", route_with_crankback");
      cranked += filtered.crankbacks;
      expect_same(w.rows.route_degraded(req, crashed.node_up),
                  w.opaque.route_degraded(req, crashed.node_up),
                  where + ", route_degraded");
    }
  }
  // Both routers had paths to agree on and crankbacks to count.
  EXPECT_GT(found, 90u);
  EXPECT_GT(cranked, 0u);
}

TEST(DecisionCoordinates, RowsRouteAsTheOpaqueTierAtDepthOne) {
  check_worlds(0, 0, 6100);
}

TEST(DecisionCoordinates, RowsRouteAsTheOpaqueTierOnBoundedFanout) {
  check_worlds(3, 6, 6200);
}

/// Every parent's rank lists in `router` equal the oracle's, for every
/// service of the catalog and one past it.
void expect_ranks_match(const HierarchicalServiceRouter& router,
                        const HfcTopology& topo, const std::string& where) {
  for (std::size_t p = topo.cluster_count(); p < topo.group_count(); ++p) {
    const ClusterId parent(static_cast<std::int32_t>(p));
    for (std::int32_t s = 0; s <= kCatalog; ++s) {
      EXPECT_EQ(router.candidate_ranks(parent, ServiceId(s)),
                oracle::candidate_ranks(router, topo, parent, ServiceId(s)))
          << where << ", parent " << p << ", service " << s;
    }
  }
}

/// One random churn batch: leaves, rejoins and brand-new proxies.
std::vector<ChurnEvent> churn_batch(const DynamicHfcOverlay& overlay,
                                    Rng& rng) {
  std::vector<ChurnEvent> events;
  std::vector<bool> active(overlay.universe_size());
  std::size_t active_count = 0;
  for (std::size_t v = 0; v < active.size(); ++v) {
    active[v] = overlay.is_active(NodeId(static_cast<std::int32_t>(v)));
    active_count += active[v] ? 1 : 0;
  }
  for (int k = 0; k < 12; ++k) {
    const int kind = rng.uniform_int(0, 3);
    if (kind == 3) {
      events.push_back(ChurnEvent::make_add(
          {rng.uniform_real(0.0, 150.0), rng.uniform_real(0.0, 300.0)},
          random_services(rng, 3)));
      continue;
    }
    const std::size_t v = rng.pick_index(active.size());
    const NodeId node(static_cast<std::int32_t>(v));
    if (active[v] && active_count > 20) {
      events.push_back(ChurnEvent::make_deactivate(node));
      active[v] = false;
      --active_count;
    } else if (!active[v]) {
      events.push_back(ChurnEvent::make_activate(node));
      active[v] = true;
      ++active_count;
    }
  }
  return events;
}

TEST(CandidateRanks, MatchOracleThroughChurnJoinsRestructureAndSnapshots) {
  Rng rng(7001);
  DynamicHfcOverlay overlay(blobs(150, rng), sparse_placement(150, rng));
  const auto root_ranks = [&] {
    std::vector<std::vector<std::uint32_t>> all;
    for (std::int32_t s = 0; s < kCatalog; ++s) {
      all.push_back(overlay.universe_router().candidate_ranks(
          overlay.universe_topology().root(), ServiceId(s)));
    }
    return all;
  };
  const auto check_live = [&](const std::string& where) {
    overlay.universe_router().sync_with_topology();
    expect_ranks_match(overlay.universe_router(), overlay.universe_topology(),
                       where);
  };
  check_live("construction");

  std::shared_ptr<const serve::RouteSnapshot> snap;
  std::size_t moved = 0;
  const auto churn_then_capture = [&](const std::string& where) {
    const auto before = root_ranks();
    overlay.apply(churn_batch(overlay, rng));
    // Captured before the live router syncs: the clone moves the ranks of
    // the stale clusters in the sets it copied.
    snap = serve::RouteSnapshot::capture(overlay, {}, 0, snap.get());
    expect_ranks_match(snap->router(), snap->topology(), where + ", snapshot");
    check_live(where);
    moved += root_ranks() != before ? 1 : 0;
  };
  for (int round = 0; round < 8; ++round) {
    churn_then_capture("churn round " + std::to_string(round));
  }
  // Churn moved clusters in or out of some service's candidates.
  EXPECT_GT(moved, 0u);

  const NodeId joined = overlay.add_proxy(
      {5.0, 5.0}, {ServiceId(0), ServiceId(kCatalog - 1)});
  check_live("add_proxy");
  const ClusterId home = overlay.universe_topology().cluster_of(joined);
  const std::vector<ClusterId>& clusters =
      overlay.universe_topology().group(overlay.universe_topology().root())
          .children;
  const auto rank = static_cast<std::uint32_t>(
      std::lower_bound(clusters.begin(), clusters.end(), home) -
      clusters.begin());
  const std::vector<std::uint32_t> hosting =
      overlay.universe_router().candidate_ranks(
          overlay.universe_topology().root(), ServiceId(kCatalog - 1));
  EXPECT_TRUE(std::binary_search(hosting.begin(), hosting.end(), rank));

  overlay.restructure();
  check_live("restructure");
  churn_then_capture("churn after restructure");

  // Overrides on the live router: the lists follow SCT_C, not SCT_P.
  HierarchicalServiceRouter& router = overlay.universe_router();
  const HfcTopology& topo = overlay.universe_topology();
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    router.set_cluster_capability(ClusterId(static_cast<std::int32_t>(c)),
                                  random_services(rng, 4));
  }
  expect_ranks_match(router, topo, "overrides");
  snap = serve::RouteSnapshot::capture(overlay, {}, 0, snap.get());
  expect_ranks_match(snap->router(), snap->topology(), "overrides, snapshot");
}

TEST(CandidateRanks, OverridesAtDepthThreeReachTheRoot) {
  Rng rng(7101);
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back(
        {rng.uniform_real(0.0, 1000.0), rng.uniform_real(0.0, 1000.0)});
  }
  const OverlayNetwork net(pts, random_placement(pts.size(), rng, 3));
  const HfcTopology topo(pts, MultiLevelParams::bounded(3, 6));
  ASSERT_GE(topo.levels(), 3u);
  HierarchicalServiceRouter router(net, topo, net.coord_distance_fn());
  expect_ranks_match(router, topo, "construction");

  // Random overrides, leaf by leaf: every ancestor list follows.
  for (int round = 0; round < 40; ++round) {
    const auto c = static_cast<std::int32_t>(
        rng.pick_index(topo.cluster_count()));
    router.set_cluster_capability(ClusterId(c), random_services(rng, 3));
  }
  expect_ranks_match(router, topo, "overrides");

  // Withdraw one service from every leaf: the top level's aggregates lose
  // it, so the root's CSP finds no group to serve it.
  const ServiceId gone(0);
  const std::vector<NodeId> endpoints = net.all_nodes();
  ServiceRequest req;
  req.source = endpoints.front();
  req.destination = endpoints.back();
  req.graph = ServiceGraph::linear({gone});
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    router.set_cluster_capability(ClusterId(static_cast<std::int32_t>(c)),
                                  {gone});
  }
  ASSERT_TRUE(router.compute_csp(req).found);
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    router.set_cluster_capability(ClusterId(static_cast<std::int32_t>(c)),
                                  {ServiceId(1)});
  }
  expect_ranks_match(router, topo, "withdrawn");
  for (const ClusterId top : topo.group(topo.root()).children) {
    EXPECT_FALSE(router.group_hosts(top, gone));
  }
  EXPECT_FALSE(router.group_hosts(topo.root(), gone));
  EXPECT_FALSE(router.compute_csp(req).found);
  EXPECT_FALSE(router.route(req).found);
}

}  // namespace
}  // namespace hfc
