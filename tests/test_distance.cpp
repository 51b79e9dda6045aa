// Tests for src/distance: the tiered DistanceService (truth, coordinate),
// the sharded LRU row cache, cache-size resolution, and the
// bit-equality contracts the refactor away from dense matrices relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "cluster/mst.h"
#include "coords/point.h"
#include "distance/coord_distance.h"
#include "distance/row_cache.h"
#include "distance/truth_distance.h"
#include "obs/metrics.h"
#include "oracle/mst.h"
#include "oracle/scan_distance.h"
#include "overlay/mesh_topology.h"
#include "overlay/overlay_network.h"
#include "topology/shortest_paths.h"
#include "topology/transit_stub.h"
#include "util/rng.h"
#include "util/sym_matrix.h"

namespace hfc {
namespace {

PhysicalNetwork triangle_with_tail() {
  // r0 --1-- r1 --2-- r2, r0 --5-- r2, r2 --3-- r3
  PhysicalNetwork net;
  const RouterId r0 = net.add_router(RouterKind::kTransit);
  const RouterId r1 = net.add_router(RouterKind::kStub);
  const RouterId r2 = net.add_router(RouterKind::kStub);
  const RouterId r3 = net.add_router(RouterKind::kStub);
  net.add_link(r0, r1, 1.0);
  net.add_link(r1, r2, 2.0);
  net.add_link(r0, r2, 5.0);
  net.add_link(r2, r3, 3.0);
  return net;
}

std::vector<Point> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform_real(0, 100), rng.uniform_real(0, 100)});
  }
  return pts;
}

ServicePlacement trivial_placement(std::size_t n) {
  ServicePlacement p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = {ServiceId(static_cast<std::int32_t>(i % 3))};
  }
  return p;
}

// ------------------------------------------------------- row cache ----

TEST(RowCache, ComputesOncePerResidencyAndHits) {
  int computes = 0;
  RowCache<std::vector<double>> cache(4, sizeof(double));
  const auto compute = [&computes](std::size_t key) {
    ++computes;
    return std::vector<double>{static_cast<double>(key)};
  };
  const auto a = cache.get_or_compute(0, compute);
  const auto b = cache.get_or_compute(0, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(a.get(), b.get());  // the very same resident row
  EXPECT_DOUBLE_EQ((*a)[0], 0.0);
}

TEST(RowCache, CapacityOneIsPureLru) {
  int computes = 0;
  RowCache<std::vector<double>> cache(1, sizeof(double));
  const auto compute = [&computes](std::size_t key) {
    ++computes;
    return std::vector<double>{static_cast<double>(key) * 10.0};
  };
  const auto first = cache.get_or_compute(0, compute);
  EXPECT_EQ(computes, 1);
  (void)cache.get_or_compute(0, compute);  // hit
  EXPECT_EQ(computes, 1);
  (void)cache.get_or_compute(1, compute);  // evicts key 0
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.resident_rows(), 1u);
  const auto again = cache.get_or_compute(0, compute);  // recompute
  EXPECT_EQ(computes, 3);
  // Evicted-then-recomputed rows are bit-identical (pure function of key)
  // even though the resident object is a fresh allocation.
  EXPECT_NE(first.get(), again.get());
  EXPECT_EQ(*first, *again);
  // The evicted row survived via shared ownership the whole time.
  EXPECT_DOUBLE_EQ((*first)[0], 0.0);
}

TEST(RowCache, LruEvictsLeastRecentlyTouched) {
  int computes = 0;
  // Capacity 2 -> 2 shards of 1; keys 0 and 2 share shard 0.
  RowCache<std::vector<double>> cache(2, sizeof(double));
  const auto compute = [&computes](std::size_t key) {
    ++computes;
    return std::vector<double>{static_cast<double>(key)};
  };
  (void)cache.get_or_compute(0, compute);
  (void)cache.get_or_compute(2, compute);  // evicts 0 within shard 0
  EXPECT_EQ(computes, 2);
  (void)cache.get_or_compute(2, compute);  // still resident
  EXPECT_EQ(computes, 2);
  (void)cache.get_or_compute(0, compute);  // must recompute
  EXPECT_EQ(computes, 3);
}

TEST(RowCache, ResidentRowsNeverExceedCapacity) {
  for (const std::size_t capacity : {1u, 2u, 3u, 5u, 8u, 13u}) {
    RowCache<std::vector<double>> cache(capacity, 32);
    for (std::size_t key = 0; key < 64; ++key) {
      (void)cache.get_or_compute(
          key, [](std::size_t k) { return std::vector<double>(4, double(k)); });
      EXPECT_LE(cache.resident_rows(), capacity) << "capacity " << capacity;
    }
    EXPECT_EQ(cache.resident_bytes(), cache.resident_rows() * 32);
  }
}

TEST(RowCache, RejectsZeroCapacity) {
  EXPECT_THROW(RowCache<std::vector<double>>(0, 8), std::invalid_argument);
}

// ------------------------------------------------- cache-size default ----

TEST(ResolveCacheRows, RequestedBeatsFallback) {
  EXPECT_EQ(resolve_cache_rows(5, 99), 5u);
  EXPECT_EQ(resolve_cache_rows(0, 99), 99u);
}

// ------------------------------------------------------ truth tier ----

TEST(TruthDistance, BitEqualToPairwiseDelays) {
  Rng rng(41);
  const TransitStubTopology topo =
      generate_transit_stub(TransitStubParams::for_total_routers(300), rng);
  std::vector<RouterId> subset;
  for (int r = 0; r < 40; ++r) subset.push_back(RouterId(r * 5));

  const SymMatrix<double> dense = pairwise_delays(topo.network, subset);
  const TruthDistanceService svc(topo.network, subset);
  ASSERT_EQ(svc.size(), subset.size());
  for (std::size_t i = 0; i < subset.size(); ++i) {
    for (std::size_t j = 0; j < subset.size(); ++j) {
      // Exact equality: same dijkstra, same source row, same entry.
      EXPECT_EQ(svc.at(i, j), dense.at(i, j)) << i << "," << j;
    }
  }
}

TEST(TruthDistance, RowMatchesDijkstraAndOrientationContract) {
  const PhysicalNetwork net = triangle_with_tail();
  const std::vector<RouterId> endpoints{RouterId(0), RouterId(2), RouterId(3)};
  const TruthDistanceService svc(net, endpoints);
  const ShortestPathTree tree = dijkstra(net, RouterId(3));
  const auto row = svc.row(2);
  ASSERT_EQ(row->size(), 3u);
  for (std::size_t j = 0; j < endpoints.size(); ++j) {
    EXPECT_EQ((*row)[j], tree.delay_ms[endpoints[j].idx()]);
  }
  // at() canonicalizes to the higher-indexed source's row.
  EXPECT_EQ(svc.at(0, 2), (*row)[0]);
  EXPECT_EQ(svc.at(2, 0), (*row)[0]);
  EXPECT_DOUBLE_EQ(svc.at(1, 1), 0.0);
}

TEST(TruthDistance, EvictionRecomputesIdenticalRows) {
  Rng rng(43);
  const TransitStubTopology topo =
      generate_transit_stub(TransitStubParams::for_total_routers(100), rng);
  std::vector<RouterId> subset;
  for (int r = 0; r < 12; ++r) subset.push_back(RouterId(r * 3));

  const TruthDistanceService tight(topo.network, subset, 1);
  const TruthDistanceService roomy(topo.network, subset, subset.size());
  EXPECT_EQ(tight.cache_rows(), 1u);
  for (std::size_t sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 0; i < subset.size(); ++i) {
      for (std::size_t j = 0; j < subset.size(); ++j) {
        EXPECT_EQ(tight.at(i, j), roomy.at(i, j));
      }
    }
  }
  EXPECT_LE(tight.resident_rows(), 1u);
  EXPECT_EQ(tight.resident_bytes(),
            tight.resident_rows() * subset.size() * sizeof(double));
}

TEST(TruthDistance, MstRowGroupedScanComputesEachRowOnce) {
  Rng rng(45);
  const TransitStubTopology topo =
      generate_transit_stub(TransitStubParams::for_total_routers(200), rng);
  std::vector<RouterId> subset;
  for (int r = 0; r < 48; ++r) subset.push_back(RouterId(r * 2));
  // Cache far smaller than the endpoint set: the old per-pair at() scan
  // canonicalized every lookup to the higher-indexed row and thrashed
  // this LRU with O(n) recomputes per row.
  const TruthDistanceService svc(topo.network, subset, 4);
  obs::Counter& computes =
      obs::MetricsRegistry::global().counter("distance.truth_row_computes");
  const std::uint64_t before = computes.value();
  const std::vector<MstEdge> edges = mst_dense(svc);
  EXPECT_EQ(edges.size(), subset.size() - 1);
  // Row-grouped Prim fetches each source row exactly once, so even the
  // 4-row cache sees a sequential miss pattern: n computes, no thrash.
  EXPECT_EQ(computes.value() - before, subset.size());
}

TEST(TruthDistance, RejectsBadEndpoints) {
  const PhysicalNetwork net = triangle_with_tail();
  EXPECT_THROW(TruthDistanceService(net, {}), std::invalid_argument);
  EXPECT_THROW(TruthDistanceService(net, {RouterId(0), RouterId(99)}),
               std::invalid_argument);
}

// ------------------------------------------------- coordinate tier ----

TEST(CoordDistance, BitEqualToEuclideanAndOverlayNetwork) {
  const std::vector<Point> pts = random_points(20, 7);
  const OverlayNetwork net(pts, trivial_placement(20));
  const CoordDistanceService svc(pts);
  ASSERT_EQ(svc.size(), 20u);
  for (std::size_t a = 0; a < 20; ++a) {
    for (std::size_t b = 0; b < 20; ++b) {
      EXPECT_EQ(svc.at(a, b), euclidean(pts[a], pts[b]));
      EXPECT_EQ(svc.at(a, b),
                net.coord_distance(NodeId(static_cast<std::int32_t>(a)),
                                   NodeId(static_cast<std::int32_t>(b))));
    }
  }
}

TEST(CoordDistance, RowPairsAndFnMatchAt) {
  const std::vector<Point> pts = random_points(15, 11);
  const CoordDistanceService svc(pts);
  const auto row = svc.row(6);
  ASSERT_EQ(row->size(), 15u);
  for (std::size_t j = 0; j < 15; ++j) {
    EXPECT_EQ((*row)[j], svc.at(6, j));
  }
  const auto fn = svc.fn();
  for (std::int32_t a = 0; a < 15; ++a) {
    for (std::int32_t b = 0; b < 15; ++b) {
      EXPECT_EQ(fn(NodeId(a), NodeId(b)), svc.at(a, b));
    }
  }
  EXPECT_GT(svc.resident_bytes(), 0u);
}

TEST(CoordDistance, MstDenseRowPathMatchesKruskalOracle) {
  // With the coordinates hidden the service form runs the row-grouped
  // Prim; its edge set must be the Kruskal oracle's, with the same
  // doubles (the coordinate tier is exactly symmetric). Prim emits edges
  // in insertion order, so compare as sets of canonical edges.
  const std::vector<Point> pts = random_points(60, 13);
  const CoordDistanceService svc(pts);
  const std::vector<MstEdge> prim = mst_dense(oracle::ScanDistance(svc));
  using Edge = std::tuple<std::size_t, std::size_t, double>;
  std::set<Edge> got;
  for (const MstEdge& e : prim) {
    got.emplace(std::min(e.a, e.b), std::max(e.a, e.b), e.length);
  }
  std::set<Edge> want;
  for (const MstEdge& e : oracle::kruskal_mst(pts)) {
    want.emplace(e.a, e.b, e.length);
  }
  EXPECT_EQ(prim.size(), pts.size() - 1);
  EXPECT_EQ(got, want);
}

TEST(CoordDistance, RejectsInconsistentInput) {
  EXPECT_THROW(CoordDistanceService({}), std::invalid_argument);
  EXPECT_THROW(CoordDistanceService({{0.0, 1.0}, {2.0}}),
               std::invalid_argument);
}

// ------------------------------------------------- mesh routing lru ----

TEST(MeshRouting, TightCacheBitEqualToFullCache) {
  const std::vector<Point> pts = random_points(24, 61);
  const OverlayNetwork net(pts, trivial_placement(24));
  Rng mesh_rng(62);
  const MeshTopology mesh(24, net.coord_distance_fn(), MeshParams{}, mesh_rng);
  const MeshRouting full = mesh.compute_routing(net.coord_distance_fn(), 24);
  const MeshRouting tight = mesh.compute_routing(net.coord_distance_fn(), 1);
  for (int u = 0; u < 24; ++u) {
    for (int v = 0; v < 24; ++v) {
      EXPECT_EQ(full.distance(NodeId(u), NodeId(v)),
                tight.distance(NodeId(u), NodeId(v)));
      EXPECT_EQ(full.walk(NodeId(u), NodeId(v)),
                tight.walk(NodeId(u), NodeId(v)));
    }
  }
  // The tight router held at most one source tree resident at a time.
  EXPECT_LE(tight.resident_bytes(),
            24 * (sizeof(double) + sizeof(NodeId)));
}

// --------------------------------------------------- at_unsafe seam ----

TEST(SymMatrixUnsafe, AtUnsafeMatchesChecked) {
  SymMatrix<double> m(6, 0.0);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m.at(i, j) = static_cast<double>(i * 10 + j);
    }
  }
  const SymMatrix<double>& cm = m;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(cm.at_unsafe(i, j), cm.at(i, j));
    }
  }
  m.at_unsafe(4, 2) = -1.0;
  EXPECT_EQ(m.at(2, 4), -1.0);
}

// --------------------------------------- coord-functor lifetime bug ----

TEST(CoordDistanceRef, IsCopyableAndOutlivesCallSites) {
  const std::vector<Point> pts = random_points(8, 71);
  const OverlayNetwork net(pts, trivial_placement(8));
  const CoordDistanceRef ref = net.coord_distance_fn();
  const CoordDistanceRef copy = ref;  // value semantics, no closure state
  EXPECT_EQ(copy(NodeId(1), NodeId(5)), net.coord_distance(NodeId(1),
                                                           NodeId(5)));
  const OverlayDistance wrapped(copy);  // still works through the alias
  EXPECT_EQ(wrapped(NodeId(0), NodeId(7)), euclidean(pts[0], pts[7]));
}

#ifndef NDEBUG
TEST(CoordDistanceRef, DebugBuildDetectsDanglingNetwork) {
  auto net = std::make_unique<OverlayNetwork>(random_points(5, 73),
                                              trivial_placement(5));
  const CoordDistanceRef ref = net->coord_distance_fn();
  EXPECT_NO_THROW((void)ref(NodeId(0), NodeId(1)));
  net.reset();
  EXPECT_THROW((void)ref(NodeId(0), NodeId(1)), std::logic_error);
}
#endif

}  // namespace
}  // namespace hfc
