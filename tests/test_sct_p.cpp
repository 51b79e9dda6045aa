// Tests for the per-cluster host tables (SCT_P, paper §5.2) of the
// hierarchical router: the tables equal a member scan through churn,
// joins, restructuring, snapshot cloning and deep topologies; overriding
// SCT_C leaves them alone; a snapshot's solves read them from pool
// threads; and conquer over them routes exactly as the flat router's
// member scan does under a crashed-node filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "cluster/zahn.h"
#include "dynamic/dynamic_overlay.h"
#include "oracle/host_table.h"
#include "overlay/hfc_topology.h"
#include "routing/filters.h"
#include "routing/flat_router.h"
#include "routing/hierarchical_router.h"
#include "serve/route_snapshot.h"
#include "services/service_graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

constexpr int kCatalog = 10;

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

/// Every leaf's SCT_P in `router` equals the member-scan oracle over
/// `net` and `topo`, and the leaf's derived SCT_C lists its services.
void expect_tables_match(const HierarchicalServiceRouter& router,
                         const OverlayNetwork& net, const HfcTopology& topo,
                         const std::string& where) {
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    const ClusterId cluster(static_cast<std::int32_t>(c));
    const HierarchicalServiceRouter::HostTable& table =
        router.host_table(cluster);
    const oracle::HostRows rows = oracle::host_table(net, topo, cluster);
    ASSERT_EQ(table.services.size(), rows.size())
        << where << ", cluster " << c;
    ASSERT_EQ(table.offsets.size(), rows.size() + 1)
        << where << ", cluster " << c;
    EXPECT_EQ(table.offsets.back(), table.hosts.size())
        << where << ", cluster " << c;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(table.services[i], rows[i].first)
          << where << ", cluster " << c;
      const std::span<const NodeId> hosts = table.hosts_of(rows[i].first);
      EXPECT_EQ(std::vector<NodeId>(hosts.begin(), hosts.end()),
                rows[i].second)
          << where << ", cluster " << c << ", service " << rows[i].first;
    }
    EXPECT_TRUE(table.hosts_of(ServiceId(kCatalog)).empty());
    EXPECT_EQ(router.cluster_capability(cluster), table.services)
        << where << ", cluster " << c;
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

TEST(SctP, MatchesMemberScanThroughChurnJoinsRestructureAndSnapshots) {
  Rng rng(3001);
  DynamicHfcOverlay overlay(blobs(150, rng), random_placement(150, rng, 3));
  const auto check_live = [&](const std::string& where) {
    expect_tables_match(overlay.universe_router(), overlay.universe_network(),
                        overlay.universe_topology(), where);
  };
  check_live("construction");

  std::shared_ptr<const serve::RouteSnapshot> snap;
  const auto churn_then_capture = [&](const std::string& where) {
    overlay.apply(churn_batch(overlay, rng));
    // Captured before the live router syncs: the clone re-derives the
    // stale clusters of the tables it copied.
    snap = serve::RouteSnapshot::capture(overlay, {}, 0, snap.get());
    expect_tables_match(snap->router(), snap->network(), snap->topology(),
                        where + ", snapshot");
    check_live(where);
  };
  for (int round = 0; round < 6; ++round) {
    churn_then_capture("churn round " + std::to_string(round));
  }

  const NodeId joined = overlay.add_proxy(
      {5.0, 5.0}, {ServiceId(0), ServiceId(kCatalog - 1)});
  check_live("add_proxy");
  const ClusterId home = overlay.universe_topology().cluster_of(joined);
  const auto hosts = overlay.universe_router().host_table(home).hosts_of(
      ServiceId(kCatalog - 1));
  EXPECT_NE(std::find(hosts.begin(), hosts.end(), joined), hosts.end());

  const std::size_t universe = overlay.universe_network().size();
  overlay.restructure();
  EXPECT_EQ(overlay.universe_network().size(), universe);
  check_live("restructure");
  churn_then_capture("churn after restructure");
}

TEST(SctP, SnapshotSolvesReadTablesFromPoolThreads) {
  Rng rng(5150);
  DynamicHfcOverlay overlay(blobs(150, rng), random_placement(150, rng, 3));
  overlay.apply(churn_batch(overlay, rng));
  std::vector<NodeId> up;
  std::vector<NodeId> crashed;
  for (std::size_t v = 0; v < overlay.universe_size(); ++v) {
    const NodeId node(static_cast<std::int32_t>(v));
    if (!overlay.is_active(node)) continue;
    (rng.chance(0.2) ? crashed : up).push_back(node);
  }
  const auto snap = serve::RouteSnapshot::capture(overlay, crashed, 1);
  std::vector<ServiceRequest> requests;
  for (int r = 0; r < 64; ++r) {
    ServiceRequest req;
    req.source = rng.pick(up);
    do {
      req.destination = rng.pick(up);
    } while (req.destination == req.source);
    req.graph = ServiceGraph::linear(random_services(rng, 3));
    requests.push_back(std::move(req));
  }
  std::vector<ServicePath> serial;
  for (const ServiceRequest& req : requests) {
    serial.push_back(snap->route(req));
  }
  std::vector<ServicePath> pooled(requests.size());
  parallel_for(requests.size(), 1,
               [&](std::size_t i) { pooled[i] = snap->route(requests[i]); });
  std::size_t found = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(pooled[i].found, serial[i].found) << "request " << i;
    EXPECT_EQ(pooled[i].hops, serial[i].hops) << "request " << i;
    found += serial[i].found ? 1 : 0;
  }
  EXPECT_GT(found, requests.size() / 2);
}

/// Random uniform points for the bounded-fanout builds.
std::vector<Point> uniform_points(std::size_t n, Rng& rng) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform_real(0.0, 1000.0),
                   rng.uniform_real(0.0, 1000.0)});
  }
  return pts;
}

TEST(SctP, MatchesMemberScanOnDeepTopologies) {
  struct Shape {
    std::size_t fanout;
    std::size_t leaf_limit;
    std::size_t levels;
  };
  for (const Shape shape : {Shape{8, 16, 2}, Shape{4, 8, 3}}) {
    Rng rng(77 + shape.levels);
    const std::vector<Point> pts = uniform_points(120, rng);
    const OverlayNetwork net(pts, random_placement(pts.size(), rng, 4));
    const HfcTopology topo(
        pts, MultiLevelParams::bounded(shape.fanout, shape.leaf_limit));
    ASSERT_EQ(topo.levels(), shape.levels);
    const HierarchicalServiceRouter router(net, topo, net.coord_distance_fn());
    expect_tables_match(router, net, topo,
                        "depth " + std::to_string(topo.levels()));
  }
}

/// A one-level world over random blobs.
struct World {
  std::vector<Point> pts;
  OverlayNetwork net;
  HfcTopology topo;
  HierarchicalServiceRouter router;

  World(std::size_t n, Rng& rng, int max_services)
      : pts(blobs(n, rng)),
        net(pts, random_placement(n, rng, max_services)),
        topo(cluster_points(pts), net.coord_distance_fn()),
        router(net, topo, net.coord_distance_fn()) {}
};

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

TEST(SctP, CapabilityOverrideLeavesConquerCandidatesUnchanged) {
  Rng rng(4242);
  World w(100, rng, 3);
  const std::vector<NodeId> endpoints = w.net.all_nodes();
  std::vector<ServiceRequest> requests;
  std::vector<HierarchicalServiceRouter::Csp> csps;
  std::vector<ServicePath> before;
  while (requests.size() < 30) {
    ServiceRequest req = random_request(rng, endpoints, 4);
    HierarchicalServiceRouter::Csp csp = w.router.compute_csp(req);
    if (!csp.found) continue;
    before.push_back(
        w.router.conquer(csp, w.router.divide(csp, req), req));
    ASSERT_TRUE(before.back().found);
    requests.push_back(std::move(req));
    csps.push_back(std::move(csp));
  }
  // SCT_C now claims nothing anywhere, so no CSP is found; conquer still
  // maps each run onto the hosts the placement gives it.
  for (std::size_t c = 0; c < w.topo.cluster_count(); ++c) {
    w.router.set_cluster_capability(ClusterId(static_cast<std::int32_t>(c)),
                                    {});
  }
  EXPECT_FALSE(w.router.compute_csp(requests.front()).found);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ServicePath after = w.router.conquer(
        csps[i], w.router.divide(csps[i], requests[i]), requests[i]);
    EXPECT_EQ(after.hops, before[i].hops) << "request " << i;
    EXPECT_EQ(after.cost, before[i].cost) << "request " << i;
  }
  for (std::size_t c = 0; c < w.topo.cluster_count(); ++c) {
    const ClusterId cluster(static_cast<std::int32_t>(c));
    const oracle::HostRows rows = oracle::host_table(w.net, w.topo, cluster);
    ASSERT_EQ(w.router.host_table(cluster).services.size(), rows.size());
    EXPECT_TRUE(w.router.cluster_capability(cluster).empty());
  }
}

TEST(SctP, ConquerMatchesMemberScanUnderCrashes) {
  std::size_t solved = 0;
  std::size_t reported = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(900 + seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(40, 300));
    World w(n, rng, 2);
    const FlatServiceRouter flat(w.net, w.net.coord_distance_fn());
    std::vector<NodeId> crashed;
    std::vector<NodeId> up;
    for (const NodeId node : w.net.all_nodes()) {
      (rng.chance(0.25) ? crashed : up).push_back(node);
    }
    const RoutingFilters filters = avoid_crashed(crashed);
    const NodeServiceFilter alive = [&](NodeId node, ServiceId) {
      return filters.node_up(node);
    };
    for (int r = 0; r < 40; ++r) {
      const ServiceRequest req = random_request(rng, up, 5);
      const HierarchicalServiceRouter::Csp csp =
          w.router.compute_csp(req, filters);
      if (!csp.found) continue;
      const auto runs = w.router.divide(csp, req, filters);
      const HierarchicalServiceRouter::ConquerResult got =
          w.router.conquer_filtered(csp, runs, req, filters);

      // The member scan: each run by route_within over its cluster's
      // members, and a failed run's report by the same scan.
      std::vector<ServiceHop> want;
      HierarchicalServiceRouter::Exclusions infeasible;
      for (const auto& run : runs) {
        const ServiceRequest child{run.entry, run.exit,
                                   ServiceGraph::linear(run.chain)};
        const std::vector<NodeId>& members = w.topo.members(run.unit);
        const ServicePath part = flat.route_within(child, members, alive);
        if (!part.found) {
          const std::vector<ServiceId> services =
              child.graph.distinct_services();
          for (const ServiceId s : services) {
            if (std::none_of(members.begin(), members.end(), [&](NodeId m) {
                  return w.net.hosts(m, s) && alive(m, s);
                })) {
              infeasible.emplace_back(run.unit, s);
            }
          }
          if (infeasible.empty()) {
            for (const ServiceId s : services) {
              infeasible.emplace_back(run.unit, s);
            }
          }
          break;
        }
        for (const ServiceHop& hop : part.hops) {
          if (!hop.is_relay()) want.push_back(hop);
        }
      }
      if (!infeasible.empty()) {
        EXPECT_FALSE(got.path.found) << "seed " << seed << ", request " << r;
        EXPECT_EQ(got.infeasible, infeasible)
            << "seed " << seed << ", request " << r;
        ++reported;
        continue;
      }
      ASSERT_TRUE(got.path.found) << "seed " << seed << ", request " << r;
      std::vector<ServiceHop> served;
      for (const ServiceHop& hop : got.path.hops) {
        if (!hop.is_relay()) served.push_back(hop);
      }
      EXPECT_EQ(served, want) << "seed " << seed << ", request " << r;
      ++solved;
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(solved, 100u);
  EXPECT_GT(reported, 10u);
}

}  // namespace
}  // namespace hfc
