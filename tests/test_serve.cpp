// Tests for src/serve — the high-throughput route-serving engine
// (DESIGN.md §12): snapshot capture equality and isolation, degradation
// baking, generation/fingerprint cache invalidation, deterministic wave
// serving (thread-count-invariant routes AND counters), coalescing,
// FIFO eviction, and the torn-read hunt (reader threads hammering
// snapshots during live churn, every served route checked against a
// serial replay).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "obs/metrics.h"
#include "oracle/snapshot_capture.h"
#include "serve/route_cache.h"
#include "serve/route_snapshot.h"
#include "serve/serving_engine.h"
#include "services/service_graph.h"
#include "services/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hfc {
namespace {

using serve::CachedRoute;
using serve::RequestKey;
using serve::RouteCache;
using serve::RouteSnapshot;
using serve::ServedRoute;
using serve::ServingEngine;

constexpr int kCatalog = 8;

/// Four well-separated jittered blobs — several clusters, stable under
/// moderate churn.
std::vector<Point> blob_universe(std::size_t n, Rng& rng) {
  const double centers[4][2] = {{0, 0}, {120, 0}, {0, 120}, {120, 120}};
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = centers[i % 4];
    pts.push_back({c[0] + rng.uniform_real(-8.0, 8.0),
                   c[1] + rng.uniform_real(-8.0, 8.0)});
  }
  return pts;
}

ServicePlacement random_placement(std::size_t n, Rng& rng) {
  ServicePlacement p(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::int32_t> own;
    const int count = rng.uniform_int(1, 3);
    for (int k = 0; k < count; ++k) own.insert(rng.uniform_int(0, kCatalog - 1));
    for (const std::int32_t s : own) p[i].push_back(ServiceId(s));
  }
  return p;
}

/// A request between two distinct endpoints with a 1–3 service chain.
ServiceRequest random_request(Rng& rng, const std::vector<NodeId>& endpoints) {
  ServiceRequest req;
  req.source = rng.pick(endpoints);
  do {
    req.destination = rng.pick(endpoints);
  } while (req.destination == req.source);
  std::vector<ServiceId> chain;
  const int len = rng.uniform_int(1, 3);
  for (int k = 0; k < len; ++k) {
    chain.push_back(ServiceId(rng.uniform_int(0, kCatalog - 1)));
  }
  req.graph = ServiceGraph::linear(chain);
  return req;
}

/// Byte-exact digest of a path: found flag, cost bits, every hop.
std::uint64_t path_digest(const ServicePath& path) {
  std::uint64_t h = splitmix64(path.found ? 0x11ull : 0x22ull);
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &path.cost, sizeof(cost_bits));
  h = splitmix64(h ^ cost_bits);
  for (const ServiceHop& hop : path.hops) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(hop.proxy.value() + 1));
    h = splitmix64(h ^ (static_cast<std::uint64_t>(hop.service.value()) + 7));
  }
  return h;
}

bool same_path(const ServicePath& a, const ServicePath& b) {
  return a.found == b.found && a.cost == b.cost && a.hops == b.hops;
}

std::vector<NodeId> active_nodes(const DynamicHfcOverlay& overlay) {
  std::vector<NodeId> nodes;
  for (std::size_t v = 0; v < overlay.universe_size(); ++v) {
    const NodeId node(static_cast<std::int32_t>(v));
    if (overlay.is_active(node)) nodes.push_back(node);
  }
  return nodes;
}

/// Deterministic churn batch: deactivate/reactivate only nodes with id >=
/// `protect` so request endpoints stay clustered.
void churn_step(DynamicHfcOverlay& overlay, Rng& rng, std::size_t protect) {
  std::vector<ChurnEvent> batch;
  std::set<std::int32_t> touched;
  for (int k = 0; k < 6; ++k) {
    const std::int32_t v = rng.uniform_int(
        static_cast<int>(protect),
        static_cast<int>(overlay.universe_size()) - 1);
    if (!touched.insert(v).second) continue;
    if (overlay.is_active(NodeId(v))) {
      batch.push_back(ChurnEvent::make_deactivate(NodeId(v)));
    } else {
      batch.push_back(ChurnEvent::make_activate(NodeId(v)));
    }
  }
  overlay.apply(batch);
}

// --- generation-stamp monotonicity -----------------------------------

TEST(ServeGenerations, StructureGenerationIsMonotoneUnderChurn) {
  Rng rng(901);
  DynamicHfcOverlay overlay(blob_universe(64, rng), random_placement(64, rng));
  const HfcTopology& topo = overlay.universe_topology();
  std::uint64_t last_structure = topo.structure_generation();
  std::vector<std::uint64_t> last_cluster(topo.cluster_count(), 0);
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    last_cluster[c] = topo.generation(ClusterId(static_cast<std::int32_t>(c)));
  }
  Rng churn = rng.fork(1);
  for (int step = 0; step < 20; ++step) {
    churn_step(overlay, churn, 16);
    EXPECT_GE(topo.structure_generation(), last_structure);
    EXPECT_GT(topo.structure_generation(), 0u);
    last_structure = topo.structure_generation();
    last_cluster.resize(topo.cluster_count(), 0);
    for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
      const std::uint64_t gen =
          topo.generation(ClusterId(static_cast<std::int32_t>(c)));
      EXPECT_GE(gen, last_cluster[c]) << "cluster " << c;
      last_cluster[c] = gen;
    }
  }
}

// --- snapshot capture --------------------------------------------------

TEST(ServeSnapshot, RoutesEqualLiveRouter) {
  Rng rng(902);
  DynamicHfcOverlay overlay(blob_universe(60, rng), random_placement(60, rng));
  const auto snap = RouteSnapshot::capture(overlay, {}, 0);
  const std::vector<NodeId> endpoints = active_nodes(overlay);
  Rng req_rng = rng.fork(2);
  for (int i = 0; i < 40; ++i) {
    const ServiceRequest req = random_request(req_rng, endpoints);
    const ServicePath live = overlay.route(req);
    const ServicePath frozen = snap->route(req);
    EXPECT_TRUE(same_path(live, frozen)) << "request " << i;
  }
}

TEST(ServeSnapshot, IsFrozenWhileLiveStateChurns) {
  Rng rng(903);
  DynamicHfcOverlay overlay(blob_universe(60, rng), random_placement(60, rng));
  const auto snap = RouteSnapshot::capture(overlay, {}, 0);
  const std::uint64_t frozen_gen = snap->structure_generation();

  const std::vector<NodeId> endpoints = active_nodes(overlay);
  Rng req_rng = rng.fork(3);
  std::vector<ServiceRequest> reqs;
  std::vector<std::uint64_t> before;
  for (int i = 0; i < 25; ++i) {
    reqs.push_back(random_request(req_rng, endpoints));
    before.push_back(path_digest(snap->route(reqs.back())));
  }

  Rng churn = rng.fork(4);
  for (int step = 0; step < 10; ++step) churn_step(overlay, churn, 20);
  EXPECT_GT(overlay.universe_topology().structure_generation(), frozen_gen);

  // The frozen view answers exactly as before the churn.
  EXPECT_EQ(snap->structure_generation(), frozen_gen);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(path_digest(snap->route(reqs[i])), before[i]) << i;
  }
}

TEST(ServeSnapshotDegraded, RoutesEqualLiveDegradedRouter) {
  Rng rng(904);
  DynamicHfcOverlay overlay(blob_universe(72, rng), random_placement(72, rng));

  // Crash a handful of high-id proxies; request endpoints stay low-id.
  std::vector<NodeId> crashed;
  for (const std::int32_t v : {50, 55, 60, 63, 68, 71}) {
    crashed.push_back(NodeId(v));
  }
  const auto up = [&crashed](NodeId n) {
    return std::find(crashed.begin(), crashed.end(), n) == crashed.end();
  };

  obs::Counter& baked =
      obs::MetricsRegistry::global().counter("serve.baked_borders");
  const std::uint64_t baked_before = baked.value();
  const auto snap = RouteSnapshot::capture(overlay, crashed, 1);
  EXPECT_EQ(snap->crash_epoch(), 1u);
  EXPECT_FALSE(snap->up(NodeId(50)));
  EXPECT_TRUE(snap->up(NodeId(0)));

  std::vector<NodeId> endpoints;
  for (const NodeId n : active_nodes(overlay)) {
    if (n.value() < 48) endpoints.push_back(n);
  }
  Rng req_rng = rng.fork(5);
  for (int i = 0; i < 40; ++i) {
    const ServiceRequest req = random_request(req_rng, endpoints);
    const ServicePath live = overlay.route_degraded(req, up);
    const ServicePath frozen = snap->route(req);
    EXPECT_TRUE(same_path(live, frozen)) << "request " << i;
  }

  // Every baked border slot the snapshot stores is an up node; the bake
  // counter moved iff some stored pair had a crashed end.
  const HfcTopology& topo = snap->topology();
  bool any_crashed_stored = false;
  for (std::size_t a = 0; a < topo.cluster_count(); ++a) {
    for (std::size_t b = 0; b < topo.cluster_count(); ++b) {
      if (a == b) continue;
      const ClusterId ca(static_cast<std::int32_t>(a));
      const ClusterId cb(static_cast<std::int32_t>(b));
      if (!topo.live(ca) || !topo.live(cb)) continue;
      const NodeId border = topo.border(ca, cb);
      if (border.valid() && !snap->up(border)) any_crashed_stored = true;
    }
  }
  // Baking replaced every pair that HAD a survivor; any remaining crashed
  // stored border means that pair had no surviving member at all (not the
  // case in this dense blob universe).
  EXPECT_FALSE(any_crashed_stored);
  EXPECT_GT(baked.value(), baked_before);
}

// A cluster whose members are all crashed has no surviving border with
// any other: the bake writes those pairs in as disconnected, and the
// snapshot's degraded routes still equal the live degraded router's —
// found or not, hops, cost bits and crankbacks. The live router finds
// each such pair disconnected per request (fault.border_unreachable); the
// snapshot settled it at capture, so its solves count none. Another
// cluster loses every host of service 0 but keeps its other members, so
// CSPs that pick it for service 0 crank back.
TEST(ServeSnapshotDegraded, NoSurvivorPairMatchesLiveDegradedRouter) {
  Rng rng(912);
  DynamicHfcOverlay overlay(blob_universe(72, rng), random_placement(72, rng));
  const HfcTopology& live_topo = overlay.universe_topology();
  const ClusterId dead = live_topo.cluster_of(NodeId(3));
  std::vector<NodeId> crashed = live_topo.members(dead);
  for (const NodeId n : live_topo.members(live_topo.cluster_of(NodeId(1)))) {
    if (overlay.universe_network().hosts(n, ServiceId(0))) crashed.push_back(n);
  }
  std::sort(crashed.begin(), crashed.end());
  const auto up = [&crashed](NodeId n) {
    return !std::binary_search(crashed.begin(), crashed.end(), n);
  };
  const auto snap = RouteSnapshot::capture(overlay, crashed, 1);

  const HfcTopology& frozen = snap->topology();
  std::size_t disconnected = 0;
  for (std::size_t c = 0; c < frozen.cluster_count(); ++c) {
    const ClusterId other(static_cast<std::int32_t>(c));
    if (other == dead || !frozen.live(other)) continue;
    EXPECT_TRUE(live_topo.link(dead, other).found);
    EXPECT_FALSE(frozen.link(dead, other).found);
    EXPECT_FALSE(frozen.link(other, dead).found);
    ++disconnected;
  }
  ASSERT_GT(disconnected, 0u);

  std::vector<NodeId> endpoints;
  for (const NodeId n : active_nodes(overlay)) {
    if (up(n)) endpoints.push_back(n);
  }
  obs::Counter& crankbacks =
      obs::MetricsRegistry::global().counter("routing.crankbacks");
  obs::Counter& unreachable =
      obs::MetricsRegistry::global().counter("fault.border_unreachable");
  HierarchicalServiceRouter& live = overlay.universe_router();
  Rng req_rng = rng.fork(6);
  std::size_t live_crankbacks = 0;
  std::uint64_t live_unreachable = 0;
  for (int i = 0; i < 60; ++i) {
    const ServiceRequest req = random_request(req_rng, endpoints);
    std::uint64_t before = unreachable.value();
    const HierarchicalServiceRouter::RouteResult expected =
        live.route_degraded(req, up);
    live_unreachable += unreachable.value() - before;

    before = crankbacks.value();
    const std::uint64_t unreachable_before = unreachable.value();
    const ServicePath frozen_path = snap->route(req);
    EXPECT_EQ(crankbacks.value() - before, expected.crankbacks)
        << "request " << i;
    EXPECT_EQ(unreachable.value(), unreachable_before) << "request " << i;
    EXPECT_TRUE(same_path(expected.path, frozen_path)) << "request " << i;
    live_crankbacks += expected.crankbacks;
  }
  // The crashed cluster's services send some CSPs there first.
  EXPECT_GT(live_crankbacks, 0u);
  EXPECT_GT(live_unreachable, 0u);
}

// Snapshots published through churn, a join, a restructure and crash-set
// changes: each shares its predecessor's network while the universe keeps
// its size, derives SCT_C and the service fingerprints bit-identically to
// a from-scratch pass (tests/oracle/snapshot_capture.h), and routes as
// the live router does — healthy and degraded.
TEST(ServeSnapshotReuse, PublishedSnapshotsMatchFromScratchCapture) {
  Rng rng(913);
  constexpr std::size_t kUniverse = 96;
  constexpr std::size_t kProtect = 32;  // ids below stay active and up
  DynamicHfcOverlay overlay(blob_universe(kUniverse, rng),
                            random_placement(kUniverse, rng));
  ServingEngine engine(overlay);
  Rng churn = rng.fork(7);
  Rng req_rng = rng.fork(8);
  Rng crash_rng = rng.fork(9);

  std::vector<NodeId> endpoints;
  for (std::size_t v = 0; v < kProtect; ++v) {
    endpoints.push_back(NodeId(static_cast<std::int32_t>(v)));
  }
  std::shared_ptr<const RouteSnapshot> prev = engine.current();
  const auto check = [&](std::vector<NodeId> crashed, bool same_network,
                         const char* step) {
    SCOPED_TRACE(step);
    std::sort(crashed.begin(), crashed.end());
    ASSERT_TRUE(engine.publish(crashed));
    const std::shared_ptr<const RouteSnapshot> snap = engine.current();
    EXPECT_EQ(&snap->network() == &prev->network(), same_network);
    prev = snap;

    const OverlayNetwork& net = snap->network();
    const HfcTopology& topo = snap->topology();
    for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
      const ClusterId cluster(static_cast<std::int32_t>(c));
      EXPECT_EQ(snap->router().cluster_capability(cluster),
                oracle::cluster_capability(net, topo, cluster))
          << "cluster " << c;
    }
    for (std::int32_t s = 0; s < kCatalog + 2; ++s) {
      EXPECT_EQ(snap->service_fingerprint(ServiceId(s)),
                oracle::service_fingerprint(net, topo, ServiceId(s)))
          << "service " << s;
    }

    const auto up = [&crashed](NodeId n) {
      return !std::binary_search(crashed.begin(), crashed.end(), n);
    };
    for (int i = 0; i < 40; ++i) {
      const ServiceRequest req = random_request(req_rng, endpoints);
      const ServicePath live = crashed.empty()
                                   ? overlay.route(req)
                                   : overlay.route_degraded(req, up);
      EXPECT_TRUE(same_path(live, snap->route(req))) << "request " << i;
    }
  };
  // Each step publishes once healthy and once under a fresh crash set.
  const auto crash_set = [&] {
    std::vector<NodeId> crashed;
    for (int k = 0; k < 8; ++k) {
      crashed.push_back(NodeId(crash_rng.uniform_int(
          static_cast<int>(kProtect),
          static_cast<int>(overlay.universe_size()) - 1)));
    }
    return crashed;
  };

  for (int step = 0; step < 4; ++step) {
    churn_step(overlay, churn, kProtect);
    check({}, true, "churn");
    check(crash_set(), true, "churn, crashed");
  }
  overlay.add_proxy({125.0, 2.0}, {ServiceId(1), ServiceId(kCatalog + 1)});
  check({}, false, "add_proxy");
  check(crash_set(), true, "add_proxy, crashed");
  overlay.restructure();
  check({}, true, "restructure");
  check(crash_set(), true, "restructure, crashed");
  churn_step(overlay, churn, kProtect);
  check(crash_set(), true, "churn after restructure, crashed");
  check({}, true, "recovered");
}

// --- cache tagging and invalidation -----------------------------------

struct CacheFixture {
  explicit CacheFixture(std::uint64_t seed)
      : rng(seed),
        overlay(blob_universe(60, rng), random_placement(60, rng)) {}

  std::shared_ptr<const RouteSnapshot> capture(std::vector<NodeId> crashed = {},
                                               std::uint64_t epoch = 0) {
    return RouteSnapshot::capture(overlay, std::move(crashed), epoch);
  }

  Rng rng;
  DynamicHfcOverlay overlay;
};

TEST(ServeCache, HitReplaysAndSurvivesUnrelatedChurn) {
  CacheFixture fx(905);
  const auto snap = fx.capture();
  const std::vector<NodeId> endpoints = active_nodes(fx.overlay);
  Rng req_rng = fx.rng.fork(6);
  const ServiceRequest req = random_request(req_rng, endpoints);

  const ServicePath solved = snap->route(req);
  const CachedRoute entry = serve::make_cached_route(solved, req, *snap);
  EXPECT_TRUE(serve::route_current(entry, *snap));

  RouteCache cache(16);
  const RequestKey key = RequestKey::make(req, *snap);
  (void)cache.insert(key, entry);
  const auto found = cache.find(key);
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(same_path(found->path, solved));
}

TEST(ServeCache, TraversedClusterChurnInvalidates) {
  CacheFixture fx(906);
  const auto snap = fx.capture();
  const std::vector<NodeId> endpoints = active_nodes(fx.overlay);
  Rng req_rng = fx.rng.fork(7);
  const ServiceRequest req = random_request(req_rng, endpoints);
  const CachedRoute entry =
      serve::make_cached_route(snap->route(req), req, *snap);

  // Deactivate one member of the source's cluster: that cluster's
  // generation moves, so the entry must go stale against a new snapshot.
  const ClusterId src_cluster = snap->cluster_of(req.source);
  NodeId victim;
  for (const NodeId member :
       snap->topology().members(src_cluster)) {
    if (member != req.source && member != req.destination) {
      victim = member;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  fx.overlay.deactivate(victim);

  const auto snap2 = fx.capture();
  EXPECT_TRUE(serve::route_current(entry, *snap));
  EXPECT_FALSE(serve::route_current(entry, *snap2));
}

TEST(ServeCache, ServiceFingerprintDriftInvalidates) {
  CacheFixture fx(907);
  const auto snap = fx.capture();
  const std::vector<NodeId> endpoints = active_nodes(fx.overlay);
  Rng req_rng = fx.rng.fork(8);
  const ServiceRequest req = random_request(req_rng, endpoints);
  const CachedRoute entry =
      serve::make_cached_route(snap->route(req), req, *snap);

  // Find a node hosting one of the SG's services in a cluster the cached
  // path does NOT traverse; removing it leaves every traversed cluster's
  // generation intact but shifts the service's candidate fingerprint.
  std::set<std::int32_t> traversed;
  for (const auto& [cluster, gen] : entry.cluster_tags) {
    traversed.insert(cluster.value());
  }
  const std::vector<ServiceId> services = req.graph.distinct_services();
  NodeId victim;
  for (const NodeId node : active_nodes(fx.overlay)) {
    const ClusterId c = snap->cluster_of(node);
    if (!c.valid() || traversed.count(c.value()) != 0) continue;
    for (const ServiceId s : services) {
      if (fx.overlay.universe_network().hosts(node, s)) {
        victim = node;
        break;
      }
    }
    if (victim.valid()) break;
  }
  if (!victim.valid()) {
    GTEST_SKIP() << "every hosting cluster is on the path for this seed";
  }
  fx.overlay.deactivate(victim);

  const auto snap2 = fx.capture();
  EXPECT_FALSE(serve::route_current(entry, *snap2));
}

// The PR-9 fingerprint regression: service fingerprints are keyed on
// per-cluster host sets + border epochs, not whole-cluster generations.
// Removing a member that (a) hosts none of the SG's services, (b) is not
// a stored border node, and (c) sits in a cluster the cached path never
// traverses must leave the entry replayable — under generation-keyed
// fingerprints any churn in a hosting cluster flushed it.
TEST(ServeCache, NonHostChurnKeepsEntriesLive) {
  CacheFixture fx(910);
  const auto snap = fx.capture();
  const std::vector<NodeId> endpoints = active_nodes(fx.overlay);
  Rng req_rng = fx.rng.fork(11);
  const ServiceRequest req = random_request(req_rng, endpoints);
  const CachedRoute entry =
      serve::make_cached_route(snap->route(req), req, *snap);
  ASSERT_TRUE(serve::route_current(entry, *snap));

  std::set<std::int32_t> traversed;
  for (const auto& [cluster, gen] : entry.cluster_tags) {
    traversed.insert(cluster.value());
  }
  const std::vector<ServiceId> services = req.graph.distinct_services();
  const HfcTopology& live = fx.overlay.universe_topology();
  NodeId victim;
  for (const NodeId node : active_nodes(fx.overlay)) {
    const ClusterId c = snap->cluster_of(node);
    if (!c.valid() || traversed.count(c.value()) != 0) continue;
    if (live.is_border(node)) continue;
    bool hosts_any = false;
    for (const ServiceId s : services) {
      if (fx.overlay.universe_network().hosts(node, s)) hosts_any = true;
    }
    if (hosts_any) continue;
    // Meaningful regression only when the cluster hosts an SG service
    // (so the old generation-keyed chain would have drifted).
    bool cluster_hosts = false;
    for (const NodeId member : snap->topology().members(c)) {
      for (const ServiceId s : services) {
        if (fx.overlay.universe_network().hosts(member, s)) {
          cluster_hosts = true;
        }
      }
    }
    if (!cluster_hosts) continue;
    victim = node;
    break;
  }
  if (!victim.valid()) {
    GTEST_SKIP() << "no off-path non-host non-border node for this seed";
  }
  fx.overlay.deactivate(victim);

  const auto snap2 = fx.capture();
  for (const ServiceId s : services) {
    EXPECT_EQ(snap->service_fingerprint(s), snap2->service_fingerprint(s));
  }
  EXPECT_TRUE(serve::route_current(entry, *snap2));
  // And the surviving entry replays exactly what a fresh solve returns.
  EXPECT_TRUE(same_path(entry.path, snap2->route(req)));
}

TEST(ServeCache, CrashEpochInvalidates) {
  CacheFixture fx(908);
  const auto snap = fx.capture({}, 3);
  const std::vector<NodeId> endpoints = active_nodes(fx.overlay);
  Rng req_rng = fx.rng.fork(9);
  const ServiceRequest req = random_request(req_rng, endpoints);
  const CachedRoute entry =
      serve::make_cached_route(snap->route(req), req, *snap);
  EXPECT_TRUE(serve::route_current(entry, *snap));

  const auto snap_epoch4 = fx.capture({NodeId(59)}, 4);
  EXPECT_FALSE(serve::route_current(entry, *snap_epoch4));
}

TEST(ServeCache, FifoEvictionWithRefreshedEntries) {
  CacheFixture fx(909);
  const auto snap = fx.capture();
  const std::vector<NodeId> endpoints = active_nodes(fx.overlay);
  Rng req_rng = fx.rng.fork(10);

  // Four requests with distinct cache keys.
  std::vector<ServiceRequest> reqs;
  std::vector<RequestKey> keys;
  while (reqs.size() < 4) {
    const ServiceRequest req = random_request(req_rng, endpoints);
    const RequestKey key = RequestKey::make(req, *snap);
    bool dup = false;
    for (const RequestKey& k : keys) dup = dup || k == key;
    if (dup) continue;
    reqs.push_back(req);
    keys.push_back(key);
  }
  const auto entry = [&](std::size_t i) {
    return serve::make_cached_route(snap->route(reqs[i]), reqs[i], *snap);
  };

  RouteCache cache(3);
  (void)cache.insert(keys[0], entry(0));
  (void)cache.insert(keys[1], entry(1));
  // Refresh key 0: its original FIFO record goes stale, its recency moves
  // behind key 1's.
  const RouteCache::InsertResult refresh = cache.insert(keys[0], entry(0));
  EXPECT_TRUE(refresh.replaced);
  (void)cache.insert(keys[2], entry(2));
  EXPECT_EQ(cache.size(), 3u);
  // A 4th distinct key evicts key 1: key 0's older FIFO record is found
  // stale and skipped, so the oldest *live* record is key 1's.
  const RouteCache::InsertResult res = cache.insert(keys[3], entry(3));
  EXPECT_EQ(res.evicted, 1u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.find(keys[0]).has_value());
  EXPECT_FALSE(cache.find(keys[1]).has_value());
  EXPECT_TRUE(cache.find(keys[2]).has_value());
  EXPECT_TRUE(cache.find(keys[3]).has_value());
}

// The engine's cache at full size: filling it evicts nothing, and the
// first distinct insert past the capacity evicts exactly the oldest live
// entry. Keys are synthetic; the cache never reads a snapshot.
TEST(ServeCache, FullEngineCapacityEvictsOldestLiveEntry) {
  constexpr std::size_t kCapacity = ServingEngine::kCacheCapacity;
  const auto key = [](std::size_t i) {
    RequestKey k;
    k.source = NodeId(static_cast<std::int32_t>(i));
    k.destination = NodeId(0);
    k.hash = splitmix64(i);
    return k;
  };

  RouteCache cache(kCapacity);
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    evicted += cache.insert(key(i), CachedRoute{}).evicted;
  }
  EXPECT_EQ(evicted, 0u);
  EXPECT_EQ(cache.size(), kCapacity);

  // Refresh key 0 so the oldest live entry is key 1, not the oldest
  // FIFO record.
  const RouteCache::InsertResult refresh = cache.insert(key(0), CachedRoute{});
  EXPECT_TRUE(refresh.replaced);
  EXPECT_EQ(refresh.evicted, 0u);

  const RouteCache::InsertResult res =
      cache.insert(key(kCapacity), CachedRoute{});
  EXPECT_FALSE(res.replaced);
  EXPECT_EQ(res.evicted, 1u);
  EXPECT_EQ(cache.size(), kCapacity);
  EXPECT_TRUE(cache.find(key(0)).has_value());
  EXPECT_FALSE(cache.find(key(1)).has_value());
  EXPECT_TRUE(cache.find(key(2)).has_value());
  EXPECT_TRUE(cache.find(key(kCapacity)).has_value());
}

// One key refreshed over and over: every refresh leaves a stale FIFO
// record, and the cache drops them once they outnumber the live entries,
// so the queue stays within 2 * size() + 1 records.
TEST(ServeCache, RefreshedKeyKeepsFifoBounded) {
  RequestKey key;
  key.source = NodeId(1);
  key.destination = NodeId(2);
  key.hash = splitmix64(1);
  RouteCache cache(ServingEngine::kCacheCapacity);
  std::size_t longest = 0;
  for (int i = 0; i < 200000; ++i) {
    (void)cache.insert(key, CachedRoute{});
    longest = std::max(longest, cache.queued());
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_LE(longest, 2 * cache.size() + 1);
}

// --- the engine: waves, coalescing, determinism ------------------------

std::vector<ServiceRequest> build_wave(Rng& rng,
                                       const std::vector<NodeId>& endpoints,
                                       std::size_t count, double hot_fraction,
                                       const std::vector<ServiceRequest>& hot) {
  std::vector<ServiceRequest> wave;
  wave.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!hot.empty() && rng.chance(hot_fraction)) {
      wave.push_back(rng.pick(hot));
    } else {
      wave.push_back(random_request(rng, endpoints));
    }
  }
  return wave;
}

TEST(ServeEngine, CoalescesIdenticalRequestsWithinWave) {
  Rng rng(910);
  DynamicHfcOverlay overlay(blob_universe(60, rng), random_placement(60, rng));
  ServingEngine engine(overlay);
  const std::vector<NodeId> endpoints = active_nodes(overlay);
  Rng req_rng = rng.fork(11);
  const ServiceRequest req = random_request(req_rng, endpoints);

  const std::vector<ServiceRequest> wave(8, req);
  const std::vector<ServedRoute> served = engine.serve(wave);
  ASSERT_EQ(served.size(), 8u);
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_TRUE(same_path(served[i].path, served[0].path));
    EXPECT_FALSE(served[i].cache_hit);
    EXPECT_EQ(served[i].coalesced, i > 0);
  }

  // Second wave: all hits, no coalescing.
  const std::vector<ServedRoute> again = engine.serve(wave);
  for (const ServedRoute& r : again) {
    EXPECT_TRUE(r.cache_hit);
    EXPECT_FALSE(r.coalesced);
    EXPECT_TRUE(same_path(r.path, served[0].path));
  }
}

TEST(ServeEngine, ServedRoutesMatchSnapshotReplay) {
  Rng rng(911);
  DynamicHfcOverlay overlay(blob_universe(60, rng), random_placement(60, rng));
  ServingEngine engine(overlay);
  const std::vector<NodeId> endpoints = active_nodes(overlay);
  Rng req_rng = rng.fork(12);
  std::vector<ServiceRequest> hot;
  for (int i = 0; i < 6; ++i) hot.push_back(random_request(req_rng, endpoints));

  const auto snap = engine.current();
  for (int w = 0; w < 4; ++w) {
    const std::vector<ServiceRequest> wave =
        build_wave(req_rng, endpoints, 32, 0.7, hot);
    const std::vector<ServedRoute> served = engine.serve(wave);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      EXPECT_TRUE(same_path(served[i].path, snap->route(wave[i])))
          << "wave " << w << " request " << i;
    }
  }
}

TEST(ServeEngine, PublishSkipsWhenNothingChanged) {
  Rng rng(912);
  DynamicHfcOverlay overlay(blob_universe(48, rng), random_placement(48, rng));
  ServingEngine engine(overlay);
  const auto first = engine.current();
  EXPECT_FALSE(engine.publish());  // nothing moved
  EXPECT_EQ(engine.current().get(), first.get());

  Rng churn = rng.fork(13);
  churn_step(overlay, churn, 16);
  EXPECT_TRUE(engine.publish());
  EXPECT_NE(engine.current().get(), first.get());
  EXPECT_GT(engine.current()->structure_generation(),
            first->structure_generation());

  // Crash-set change forces a publish even with no churn.
  EXPECT_TRUE(engine.publish({NodeId(47)}));
  EXPECT_EQ(engine.current()->crash_epoch(), 1u);
  EXPECT_FALSE(engine.publish({NodeId(47)}));
  EXPECT_TRUE(engine.publish({}));
  EXPECT_EQ(engine.current()->crash_epoch(), 2u);
}

TEST(ServeEngine, StaleEntriesReSolveAfterChurnPublish) {
  Rng rng(913);
  DynamicHfcOverlay overlay(blob_universe(60, rng), random_placement(60, rng));
  ServingEngine engine(overlay);
  // Endpoints below the churn-protect bound stay clustered throughout.
  std::vector<NodeId> endpoints;
  for (const NodeId n : active_nodes(overlay)) {
    if (n.value() < 20) endpoints.push_back(n);
  }
  Rng req_rng = rng.fork(14);
  std::vector<ServiceRequest> wave;
  for (int i = 0; i < 16; ++i) wave.push_back(random_request(req_rng, endpoints));

  (void)engine.serve(wave);
  Rng churn = rng.fork(15);
  for (int s = 0; s < 4; ++s) churn_step(overlay, churn, 20);
  ASSERT_TRUE(engine.publish());

  const auto snap = engine.current();
  const std::vector<ServedRoute> served = engine.serve(wave);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_TRUE(same_path(served[i].path, snap->route(wave[i]))) << i;
  }
}

/// The serve.* counters that must be exactly thread-count-invariant.
const std::vector<std::string>& invariant_counters() {
  static const std::vector<std::string> names = {
      "serve.requests",     "serve.waves",          "serve.cache_hits",
      "serve.cache_misses", "serve.cache_stale",    "serve.coalesced",
      "serve.solves",       "serve.cache_inserts",  "serve.cache_evictions",
      "serve.publishes",    "serve.publish_skips",  "serve.baked_borders",
      "serve.snapshot_captures"};
  return names;
}

// The run inserts far fewer routes than the cache holds, so nothing is
// evicted; the ServeCache tests pin the eviction order, and the engine
// inserts serially in group order for any thread count.
TEST(ServeEngineDeterminism, RoutesAndCountersInvariantAcrossThreadCounts) {
  struct ArmResult {
    std::vector<std::uint64_t> digests;
    std::map<std::string, std::uint64_t> counters;
  };
  const auto run_arm = [](std::size_t threads) {
    set_global_threads(threads);
    Rng rng(914);
    DynamicHfcOverlay overlay(blob_universe(72, rng),
                              random_placement(72, rng));
    ServingEngine engine(overlay);
    const std::vector<NodeId> endpoints = [&overlay] {
      std::vector<NodeId> low;
      for (const NodeId n : active_nodes(overlay)) {
        if (n.value() < 24) low.push_back(n);
      }
      return low;
    }();

    const auto before = obs::MetricsRegistry::global().snapshot();
    Rng req_rng = rng.fork(16);
    Rng churn = rng.fork(17);
    std::vector<ServiceRequest> hot;
    for (int i = 0; i < 8; ++i) {
      hot.push_back(random_request(req_rng, endpoints));
    }

    ArmResult result;
    for (int wave_idx = 0; wave_idx < 10; ++wave_idx) {
      if (wave_idx % 3 == 1) churn_step(overlay, churn, 24);
      // Alternate a crash set in and out to exercise epoch bumps.
      std::vector<NodeId> crashed;
      if (wave_idx % 4 >= 2) crashed = {NodeId(70), NodeId(71)};
      (void)engine.publish(std::move(crashed));
      const std::vector<ServiceRequest> wave =
          build_wave(req_rng, endpoints, 48, 0.6, hot);
      for (const ServedRoute& r : engine.serve(wave)) {
        result.digests.push_back(path_digest(r.path));
      }
    }
    const auto after = obs::MetricsRegistry::global().snapshot();
    for (const std::string& name : invariant_counters()) {
      result.counters[name] = obs::counter_delta(before, after, name);
    }
    return result;
  };

  const ArmResult serial = run_arm(1);
  const ArmResult parallel = run_arm(4);
  set_global_threads(0);

  EXPECT_EQ(serial.digests, parallel.digests);
  EXPECT_EQ(serial.counters, parallel.counters);
  EXPECT_GT(serial.counters.at("serve.cache_hits"), 0u);
  EXPECT_GT(serial.counters.at("serve.coalesced"), 0u);
  EXPECT_GT(serial.counters.at("serve.solves"), 0u);
  EXPECT_EQ(serial.counters.at("serve.requests"), 480u);
}

// --- torn-read hunt ----------------------------------------------------

// Reader threads hammer engine.current() and route against whatever
// snapshot they got while the main thread churns and republishes. Every
// digest a reader records must match a serial replay on the snapshot it
// used, and the generations each reader observes must be monotone.
TEST(ServeTornRead, ConcurrentReadersMatchSerialReplayUnderChurn) {
  Rng rng(915);
  DynamicHfcOverlay overlay(blob_universe(80, rng), random_placement(80, rng));
  ServingEngine engine(overlay);

  std::vector<NodeId> endpoints;
  for (const NodeId n : active_nodes(overlay)) {
    if (n.value() < 40) endpoints.push_back(n);
  }
  Rng req_rng = rng.fork(18);
  std::vector<ServiceRequest> probes;
  for (int i = 0; i < 12; ++i) {
    probes.push_back(random_request(req_rng, endpoints));
  }

  struct Observation {
    std::shared_ptr<const RouteSnapshot> snap;
    std::size_t probe = 0;
    std::uint64_t digest = 0;
  };
  constexpr int kReaders = 4;
  std::vector<std::vector<Observation>> observations(kReaders);
  std::array<std::atomic<std::size_t>, kReaders> progress{};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t last_gen = 0;
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = engine.current();
        EXPECT_GE(snap->structure_generation(), last_gen);
        last_gen = snap->structure_generation();
        const std::size_t probe = (i + static_cast<std::size_t>(t)) % probes.size();
        observations[t].push_back(
            {snap, probe, path_digest(snap->route(probes[probe]))});
        progress[static_cast<std::size_t>(t)].fetch_add(
            1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  // Each phase churns, publishes, then waits until every reader has made
  // several observations against the freshly published snapshot — so the
  // run provably straddles multiple snapshots even on one core.
  Rng churn = rng.fork(19);
  for (int phase = 0; phase < 8; ++phase) {
    churn_step(overlay, churn, 40);
    (void)engine.publish();
    std::array<std::size_t, kReaders> base{};
    for (int t = 0; t < kReaders; ++t) {
      base[static_cast<std::size_t>(t)] =
          progress[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
    }
    for (int t = 0; t < kReaders; ++t) {
      while (progress[static_cast<std::size_t>(t)].load(
                 std::memory_order_relaxed) <
             base[static_cast<std::size_t>(t)] + 5) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  std::size_t total = 0;
  std::set<const RouteSnapshot*> distinct;
  for (const auto& per_reader : observations) {
    for (const Observation& obs : per_reader) {
      EXPECT_EQ(obs.digest, path_digest(obs.snap->route(probes[obs.probe])));
      distinct.insert(obs.snap.get());
      ++total;
    }
  }
  EXPECT_GT(total, 0u);
  // The run should have served across several published snapshots.
  EXPECT_GT(distinct.size(), 1u);
}

}  // namespace
}  // namespace hfc
