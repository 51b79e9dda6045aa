// Micro-benchmarks (google-benchmark) for the framework's hot algorithms:
// MST construction, Zahn clustering, underlay Dijkstra, service-DAG
// solving, GNP host solving, and end-to-end hierarchical routing.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "cluster/zahn.h"
#include "coords/gnp.h"
#include "core/framework.h"
#include "routing/flat_router.h"
#include "routing/hierarchical_router.h"
#include "topology/shortest_paths.h"
#include "topology/transit_stub.h"
#include "util/rng.h"

namespace hfc {
namespace {

std::vector<Point> random_points(std::size_t n, Rng& rng) {
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform_real(0, 300), rng.uniform_real(0, 300)});
  }
  return pts;
}

void BM_EuclideanMst(benchmark::State& state) {
  Rng rng(1);
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)),
                                 rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(euclidean_mst(pts));
  }
}
BENCHMARK(BM_EuclideanMst)->Arg(256)->Arg(1024);

void BM_ZahnCluster(benchmark::State& state) {
  Rng rng(2);
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)),
                                 rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster_points(pts));
  }
}
BENCHMARK(BM_ZahnCluster)->Arg(256)->Arg(1024);

void BM_UnderlayDijkstra(benchmark::State& state) {
  Rng rng(3);
  const auto topo = generate_transit_stub(
      TransitStubParams::for_total_routers(
          static_cast<std::size_t>(state.range(0))),
      rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(topo.network, RouterId(0)));
  }
}
BENCHMARK(BM_UnderlayDijkstra)->Arg(300)->Arg(1200);

void BM_GnpHostSolve(benchmark::State& state) {
  Rng rng(4);
  CoordinateSystem system;
  system.dimensions = 2;
  std::vector<double> delays;
  const Point host{140.0, 60.0};
  for (int i = 0; i < 10; ++i) {
    system.landmark_coords.push_back(
        {rng.uniform_real(0, 300), rng.uniform_real(0, 300)});
    delays.push_back(euclidean(host, system.landmark_coords.back()));
  }
  GnpParams params;
  for (auto _ : state) {
    Rng solve_rng(5);
    benchmark::DoNotOptimize(solve_host(system, delays, params, solve_rng));
  }
}
BENCHMARK(BM_GnpHostSolve);

struct RoutingFixture {
  std::unique_ptr<HfcFramework> fw;
  std::vector<ServiceRequest> requests;

  explicit RoutingFixture(std::size_t proxies) {
    FrameworkConfig config;
    // 1000 proxies over 1200 routers is Table 1 environment 4.
    config.physical_routers =
        proxies >= 1000 ? 1200 : (proxies >= 500 ? 600 : 300);
    config.proxies = proxies;
    config.seed = 99;
    fw = HfcFramework::build(config);
    Rng rng(100);
    requests = fw->generate_requests(64, rng);
  }
};

/// One fixture per proxy count, built on first use.
RoutingFixture& routing_fixture(std::int64_t proxies) {
  static std::map<std::int64_t, std::unique_ptr<RoutingFixture>> built;
  std::unique_ptr<RoutingFixture>& fx = built[proxies];
  if (!fx) fx = std::make_unique<RoutingFixture>(proxies);
  return *fx;
}

void BM_HierarchicalRoute(benchmark::State& state) {
  RoutingFixture& fx = routing_fixture(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.fw->route(fx.requests[i++ % fx.requests.size()]));
  }
}
BENCHMARK(BM_HierarchicalRoute)->Arg(250)->Arg(500)->Arg(1000);

void BM_FlatRoute(benchmark::State& state) {
  RoutingFixture& fx = routing_fixture(state.range(0));
  const FlatServiceRouter flat(fx.fw->overlay(), fx.fw->estimated_distance());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flat.route(fx.requests[i++ % fx.requests.size()]));
  }
}
BENCHMARK(BM_FlatRoute)->Arg(250)->Arg(500)->Arg(1000);

}  // namespace
}  // namespace hfc

BENCHMARK_MAIN();
