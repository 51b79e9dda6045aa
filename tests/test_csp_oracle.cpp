// Differential suite for the cluster-level service path (CSP) search:
// HierarchicalServiceRouter's cluster-major kernel against the per-state
// reference relaxation in tests/oracle/csp.h. Both must return the same
// CSP bit for bit (found, lower_bound, steps) and, through the router's
// own divide and conquer, the same routes and crankback counts. Instances
// are small randomized worlds (n <= 300) over several seeds, an exact-tie
// lattice where CSP ties are structural (DESIGN.md §9 (b)), and a corpus
// of Table 1 environment 4 requests. RouteGoldenDigest pins the routes
// of a fixed environment 4 corpus to a hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "block_lattice.h"
#include "cluster/zahn.h"
#include "core/experiment.h"
#include "core/framework.h"
#include "obs/metrics.h"
#include "oracle/csp.h"
#include "overlay/hfc_topology.h"
#include "routing/hierarchical_router.h"
#include "services/workload.h"
#include "util/rng.h"

namespace hfc {
namespace {

using Csp = HierarchicalServiceRouter::Csp;

std::uint64_t bits_of(double value) {
  std::uint64_t out = 0;
  std::memcpy(&out, &value, sizeof out);
  return out;
}

void expect_same_csp(const Csp& want, const Csp& got) {
  ASSERT_EQ(want.found, got.found);
  EXPECT_EQ(bits_of(want.lower_bound), bits_of(got.lower_bound));
  ASSERT_EQ(want.steps.size(), got.steps.size());
  for (std::size_t i = 0; i < want.steps.size(); ++i) {
    EXPECT_EQ(want.steps[i].sg_vertex, got.steps[i].sg_vertex);
    EXPECT_EQ(want.steps[i].unit, got.steps[i].unit);
  }
}

void expect_same_route(const HierarchicalServiceRouter::RouteResult& want,
                       const HierarchicalServiceRouter::RouteResult& got) {
  EXPECT_EQ(want.crankbacks, got.crankbacks);
  ASSERT_EQ(want.path.found, got.path.found);
  EXPECT_EQ(want.path.hops, got.path.hops);
  EXPECT_EQ(bits_of(want.path.cost), bits_of(got.path.cost));
}

/// Deterministic pseudo-random hash of two ids.
std::uint64_t mix(std::uint64_t seed, std::int32_t a, std::int32_t b) {
  std::uint64_t h = seed ^ (static_cast<std::uint64_t>(a) << 32) ^
                    static_cast<std::uint32_t>(b);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Deterministic pseudo-random predicate over two ids.
bool keep(std::uint64_t seed, std::int32_t a, std::int32_t b,
          unsigned one_in) {
  return mix(seed, a, b) % one_in != 0;
}

/// A symmetric distance that ignores the coordinates: every pair of
/// distinct proxies draws its own length in [0, 1500) from `seed`, so the
/// triangle inequality fails freely. With `holes` set, one pair in
/// `holes` is unreachable (infinite).
OverlayDistance scrambled(std::uint64_t seed, unsigned holes = 0) {
  return [seed, holes](NodeId a, NodeId b) {
    if (a == b) return 0.0;
    const std::int32_t lo = std::min(a.value(), b.value());
    const std::int32_t hi = std::max(a.value(), b.value());
    const std::uint64_t h = mix(seed, lo, hi);
    if (holes != 0 && (h >> 40) % holes == 0) {
      return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(h % 1'500'000) / 1000.0;
  };
}

/// A small world: proxies in Gaussian-ish blobs (so Zahn's cut yields a
/// handful to a few dozen clusters), random service placement, and
/// requests over every proxy. Borders and routing use the coordinate
/// distance, or with `manhattan` the L1 distance over the same
/// coordinates, under which integer layouts tie far more often. A
/// `decision` distance, when given, prices routing instead, while the
/// borders and link lengths stay under the coordinates.
struct World {
  std::vector<Point> coords;
  OverlayNetwork net;
  Clustering clustering;
  OverlayDistance links;
  OverlayDistance distance;
  HfcTopology topo;
  HierarchicalServiceRouter router;
  WorkloadParams workload;
  bool lb;

  World(std::vector<Point> points, ServicePlacement placement,
        WorkloadParams params, bool lower_bounds, bool manhattan = false,
        OverlayDistance decision = {})
      : coords(std::move(points)),
        net(coords, std::move(placement)),
        clustering(cluster_points(coords)),
        links(manhattan ? OverlayDistance([this](NodeId a, NodeId b) {
          const Point& p = coords[a.idx()];
          const Point& q = coords[b.idx()];
          return std::abs(p[0] - q[0]) + std::abs(p[1] - q[1]);
        })
                        : OverlayDistance(net.coord_distance_fn())),
        distance(decision ? std::move(decision) : links),
        topo(clustering, links),
        router(net, topo, distance,
               HierarchicalRoutingParams{lower_bounds}),
        workload(params),
        lb(lower_bounds) {}
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] Csp oracle_csp(
      const ServiceRequest& request, const RoutingFilters& filters = {},
      const HierarchicalServiceRouter::Exclusions& exclusions = {}) const {
    return oracle::compute_csp(router, topo, distance, lb, request, filters,
                               exclusions);
  }
  [[nodiscard]] HierarchicalServiceRouter::RouteResult oracle_route(
      const ServiceRequest& request, const RoutingFilters& filters) const {
    return oracle::route_with_crankback(router, topo, distance, lb, request,
                                        filters);
  }
  [[nodiscard]] std::vector<ServiceRequest> requests(std::size_t count,
                                                     Rng& rng) const {
    std::vector<NodeId> pool;
    for (std::size_t p = 0; p < net.size(); ++p) {
      pool.push_back(NodeId(static_cast<std::int32_t>(p)));
    }
    return make_requests(count, pool, workload, rng);
  }
};

World random_world(std::uint64_t seed, bool lb, double nonlinear,
                   OverlayDistance decision = {}) {
  Rng rng(seed);
  const std::size_t blobs = 4 + rng.pick_index(12);
  const std::size_t n = 120 + rng.pick_index(181);  // 120..300
  std::vector<Point> centers;
  for (std::size_t b = 0; b < blobs; ++b) {
    centers.push_back({rng.uniform_real(0, 1000), rng.uniform_real(0, 1000)});
  }
  std::vector<Point> coords;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& c = centers[rng.pick_index(blobs)];
    coords.push_back({c[0] + rng.uniform_real(-25, 25),
                      c[1] + rng.uniform_real(-25, 25)});
  }
  WorkloadParams params;
  params.catalog_size = 10;
  params.services_per_proxy_min = 1;
  params.services_per_proxy_max = 3;
  params.request_length_min = 2;
  params.request_length_max = 6;
  params.nonlinear_fraction = nonlinear;
  ServicePlacement placement = assign_services(n, params, rng);
  return World(std::move(coords), std::move(placement), params, lb,
               /*manhattan=*/false, std::move(decision));
}

/// The exact-tie block lattice (block_lattice.h).
World lattice_world(bool lb, bool manhattan) {
  BlockLattice lattice = block_lattice();
  return World(std::move(lattice.coords), std::move(lattice.placement),
               lattice.workload, lb, manhattan);
}

void expect_plain_agreement(const World& w, std::uint64_t seed,
                            std::size_t count) {
  Rng rng(seed);
  for (const ServiceRequest& request : w.requests(count, rng)) {
    SCOPED_TRACE(request.graph.to_string());
    expect_same_csp(w.oracle_csp(request), w.router.compute_csp(request));
    expect_same_route(w.oracle_route(request, RoutingFilters{}),
                      w.router.route_with_crankback(request, RoutingFilters{}));
  }
}

TEST(CspOracle, RandomLinearAndNonLinearSgs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const World linear = random_world(seed, true, 0.0);
    ASSERT_GE(linear.topo.cluster_count(), 2u);
    expect_plain_agreement(linear, seed + 100, 60);
    const World nonlinear = random_world(seed, true, 0.6);
    expect_plain_agreement(nonlinear, seed + 200, 60);
  }
}

// Ablation A5: external links only.
TEST(CspOracle, ExternalOnlyLowerBounds) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    expect_plain_agreement(random_world(seed, false, 0.5), seed + 300, 60);
  }
}

TEST(CspOracle, ClusterFilters) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const World w = random_world(seed, seed % 2 == 1, 0.4);
    RoutingFilters filters;
    filters.cluster_ok = [seed](ClusterId c, ServiceId s) {
      return keep(seed, c.value(), s.value(), 3);
    };
    Rng rng(seed + 400);
    for (const ServiceRequest& request : w.requests(60, rng)) {
      expect_same_csp(w.oracle_csp(request, filters),
                      w.router.compute_csp(request, filters, {}));
      expect_same_route(w.oracle_route(request, filters),
                        w.router.route_with_crankback(request, filters));
    }
  }
}

TEST(CspOracle, CrankbackExclusions) {
  std::size_t crankbacks = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const World w = random_world(seed, true, 0.4);
    // Explicit exclusions, as crankback accumulates them.
    Rng rng(seed + 500);
    for (const ServiceRequest& request : w.requests(40, rng)) {
      HierarchicalServiceRouter::Exclusions exclusions;
      for (ServiceId s : request.graph.distinct_services()) {
        for (ClusterId c : w.router.clusters_hosting(s)) {
          if (!keep(seed + 1, c.value(), s.value(), 2)) {
            exclusions.emplace_back(c, s);
          }
        }
      }
      expect_same_csp(w.oracle_csp(request, {}, exclusions),
                      w.router.compute_csp(request, {}, exclusions));
    }
    // A node filter that leaves aggregate promises unkept, so conquer
    // fails inside clusters and the router cranks back.
    RoutingFilters filters;
    filters.node_ok = [seed](NodeId p, ServiceId s) {
      return keep(seed + 2, p.value(), s.value(), 2);
    };
    for (const ServiceRequest& request : w.requests(40, rng)) {
      const auto want = w.oracle_route(request, filters);
      expect_same_route(want, w.router.route_with_crankback(request, filters));
      crankbacks += want.crankbacks;
    }
  }
  EXPECT_GT(crankbacks, 0u);  // the filter really exercised crankback
}

TEST(CspOracle, CrashedStoredBorders) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const World w = random_world(seed, seed % 2 == 0, 0.4);
    // Crash the stored border of every third cluster pair plus a few
    // random proxies.
    std::set<NodeId> down;
    const std::size_t count = w.topo.cluster_count();
    for (std::size_t a = 0; a < count; ++a) {
      for (std::size_t b = 0; b < count; ++b) {
        if (a == b || (a + 2 * b + seed) % 3 != 0) continue;
        down.insert(w.topo.border(ClusterId(static_cast<std::int32_t>(a)),
                                  ClusterId(static_cast<std::int32_t>(b))));
      }
    }
    Rng rng(seed + 600);
    for (std::size_t i = 0; i < w.net.size() / 20; ++i) {
      down.insert(NodeId(static_cast<std::int32_t>(
          rng.pick_index(w.net.size()))));
    }
    RoutingFilters filters;
    filters.node_up = [&down](NodeId p) { return down.count(p) == 0; };
    for (const ServiceRequest& request : w.requests(60, rng)) {
      if (down.count(request.source) || down.count(request.destination)) {
        continue;
      }
      expect_same_csp(w.oracle_csp(request, filters),
                      w.router.compute_csp(request, filters, {}));
      expect_same_route(w.oracle_route(request, filters),
                        w.router.route_degraded(request, filters.node_up));
    }
  }
}

TEST(CspOracle, ExactTieLattice) {
  for (const bool manhattan : {false, true}) {
    for (const bool lb : {true, false}) {
      SCOPED_TRACE(testing::Message() << "manhattan " << manhattan << " lb "
                                      << lb);
      const World w = lattice_world(lb, manhattan);
      ASSERT_EQ(w.topo.cluster_count(), 16u);
      expect_plain_agreement(w, lb ? 700 : 701, 150);
    }
  }
}

TEST(CspOracle, Env4Corpus) {
  const auto fw = HfcFramework::build(config_for(paper_environments().back(),
                                                 /*seed=*/1));
  const HierarchicalServiceRouter& router = fw->router();
  const OverlayDistance distance = fw->estimated_distance();
  Rng rng(1);
  for (const ServiceRequest& request : fw->generate_requests(200, rng)) {
    expect_same_csp(oracle::compute_csp(router, fw->topology(), distance,
                                        true, request),
                    router.compute_csp(request));
    const auto want = oracle::route_with_crankback(
        router, fw->topology(), distance, true, request, RoutingFilters{});
    ASSERT_TRUE(want.path.found);
    const ServicePath got = router.route(request);
    EXPECT_EQ(want.path.hops, got.hops);
    EXPECT_EQ(bits_of(want.path.cost), bits_of(got.cost));
  }
}

// The bound counts link lengths only, so the search assumes no metric:
// routing priced by a scrambled table that breaks the triangle inequality,
// over links chosen and measured under the coordinates. With holes in the
// table, the greedy configuration behind the upper bound often prices to
// infinity while a finite optimum exists, so nothing may be pruned.
TEST(CspOracle, NonMetricDistances) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const bool lb : {true, false}) {
      for (const double nonlinear : {0.0, 0.6}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " lb " << lb
                                        << " nonlinear " << nonlinear);
        const World w =
            random_world(seed, lb, nonlinear, scrambled(seed + 900));
        ASSERT_GE(w.topo.cluster_count(), 2u);
        expect_plain_agreement(w, seed + 800, 60);
        const World holed =
            random_world(seed, lb, nonlinear, scrambled(seed + 950, 6));
        expect_plain_agreement(holed, seed + 850, 60);
      }
    }
  }
}

// The bound must do the work it exists for: over the environment 4 corpus
// it discards at least as many states, pairs and groups as the search
// keeps.
TEST(CspOracle, BoundPrunesEnv4Corpus) {
  const auto fw = HfcFramework::build(config_for(paper_environments().back(),
                                                 /*seed=*/1));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t kept_before =
      registry.counter("routing.csp_states").value();
  const std::uint64_t skips_before =
      registry.counter("routing.csp_bound_skips").value();
  Rng rng(1);
  std::size_t found = 0;
  for (const ServiceRequest& request : fw->generate_requests(200, rng)) {
    found += fw->router().compute_csp(request).found ? 1 : 0;
  }
  const std::uint64_t kept =
      registry.counter("routing.csp_states").value() - kept_before;
  const std::uint64_t skips =
      registry.counter("routing.csp_bound_skips").value() - skips_before;
  EXPECT_EQ(found, 200u);
  EXPECT_GT(kept, 0u);
  EXPECT_GE(skips, kept);
}

// The bound's work, pinned: the states kept and the states, pairs and
// groups skipped over the environment 4 corpus above. A change in how
// the search reads its links must not move either total.
TEST(CspOracle, BoundCountersPinned) {
  const auto fw = HfcFramework::build(config_for(paper_environments().back(),
                                                 /*seed=*/1));
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t kept_before =
      registry.counter("routing.csp_states").value();
  const std::uint64_t skips_before =
      registry.counter("routing.csp_bound_skips").value();
  Rng rng(1);
  for (const ServiceRequest& request : fw->generate_requests(200, rng)) {
    ASSERT_TRUE(fw->router().compute_csp(request).found);
  }
  EXPECT_EQ(registry.counter("routing.csp_states").value() - kept_before,
            36125u);
  EXPECT_EQ(registry.counter("routing.csp_bound_skips").value() - skips_before,
            595066u);
}

/// The upper bound prices walks from source candidates in ascending
/// link-only bound and stops at the first that cannot beat the best so
/// far, so it prices fewer walks than there are source candidates; its
/// minimum, and with it every prune, is BoundCountersPinned's.
TEST(CspOracle, UpperBoundWalksPinned) {
  const auto fw = HfcFramework::build(config_for(paper_environments().back(),
                                                 /*seed=*/1));
  obs::Counter& walks = obs::MetricsRegistry::global().counter(
      "routing.csp_ub_walks");
  const std::uint64_t walks_before = walks.value();
  std::uint64_t source_candidates = 0;
  Rng rng(1);
  for (const ServiceRequest& request : fw->generate_requests(200, rng)) {
    ASSERT_TRUE(fw->router().compute_csp(request).found);
    for (const std::size_t v : request.graph.sources()) {
      source_candidates += fw->router()
                               .candidate_ranks(fw->topology().root(),
                                                request.graph.label(v))
                               .size();
    }
  }
  const std::uint64_t priced = walks.value() - walks_before;
  EXPECT_EQ(priced, 3025u);
  EXPECT_LT(priced, source_candidates);
}

/// 64-bit FNV-1a, folded over `value`'s bytes.
template <typename T>
void fnv1a(std::uint64_t& h, const T& value) {
  unsigned char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a over the hops and cost bits of 300 routes per seed at Table 1
/// environment 4 (framework and request seeds 1 and 2), as the unbounded
/// search produced them. Any change to a chosen route, a tie-break or a
/// cost's last bit changes the digest.
TEST(RouteGoldenDigest, Env4) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto fw =
        HfcFramework::build(config_for(paper_environments().back(), seed));
    Rng rng(seed);
    for (const ServiceRequest& request : fw->generate_requests(300, rng)) {
      const ServicePath path = fw->router().route(request);
      fnv1a(h, path.found);
      fnv1a(h, path.hops.size());
      for (const ServiceHop& hop : path.hops) {
        fnv1a(h, hop.proxy.value());
        fnv1a(h, hop.service.value());
      }
      fnv1a(h, bits_of(path.cost));
    }
  }
  std::ostringstream hex;
  hex << std::hex << "0x" << h;
  EXPECT_EQ(hex.str(), "0xb435eba212d0ee6b");
}

}  // namespace
}  // namespace hfc
