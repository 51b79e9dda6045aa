// ml_build: construction at scale. A clustered 5-d coordinate cloud (the
// bench_topology_scaling generator) is built into the bounded-fanout
// MultiLevelHierarchy (fanout 32, leaves of 256) and its MultiLevelRouter;
// then one client routes two-service requests over a 64-service catalogue.
// Set-up dominates, and inside it the clustering MST: cell-local Borůvka
// and the lower-bound-pruned global finish. The coordinate cloud is fixed;
// the run's seed drives the request stream.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "distance/coord_distance.h"
#include "harness.h"
#include "multilevel/multilevel_hierarchy.h"
#include "multilevel/multilevel_router.h"
#include "services/service_graph.h"
#include "util/rng.h"

namespace e2e {
namespace {

using namespace hfc;

constexpr std::size_t kNodes = 100000;
constexpr std::size_t kSmokeNodes = 12000;
constexpr std::size_t kDim = 5;
constexpr std::size_t kFanout = 32;
constexpr int kCatalog = 64;
constexpr std::uint64_t kCloudSeed = 4072;

/// Clustered point cloud: centres on a coarse lattice (spacing 100), points
/// uniform within 4 of their centre, ~400 points per centre.
std::vector<Point> clustered_coords(std::size_t n, std::uint64_t seed) {
  const std::size_t centers = std::max<std::size_t>(4, n / 400);
  std::size_t side = 1;
  while (true) {
    std::size_t cells = 1;
    for (std::size_t d = 0; d < kDim; ++d) cells *= side;
    if (cells >= centers) break;
    ++side;
  }
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t cell = i % centers;
    Point p(kDim, 0.0);
    for (std::size_t d = 0; d < kDim; ++d) {
      p[d] = static_cast<double>(cell % side) * 100.0 +
             rng.uniform_real(-4.0, 4.0);
      cell /= side;
    }
    pts.push_back(std::move(p));
  }
  return pts;
}

struct MlStack {
  std::unique_ptr<CoordDistanceService> dist;
  std::unique_ptr<MultiLevelHierarchy> hierarchy;
  std::unique_ptr<OverlayNetwork> net;
  std::unique_ptr<MultiLevelRouter> router;
};

/// Share of set-up time per construction step, largest first. The MST and
/// Zahn steps come from the library's construct.* phase counters, which
/// only set-up moves.
void print_setup_shares(Run& run, double setup_ms,
                        const std::vector<obs::MetricSnapshot>& before) {
  const auto after = obs::MetricsRegistry::global().snapshot();
  const auto phase_ms = [&](const char* counter) {
    return static_cast<double>(obs::counter_delta(before, after, counter)) /
           1000.0;
  };
  const double partition = phase_ms("construct.partition_us");
  const double local = phase_ms("construct.local_mst_us");
  const double finish = phase_ms("construct.finish_mst_us");
  const double zahn = phase_ms("construct.zahn_cut_us");
  std::vector<std::pair<double, std::string>> steps = {
      {partition, "cluster.partition_ms"},
      {local, "cluster.local_mst_ms"},
      {finish, "cluster.finish_mst_ms"},
      {zahn, "cluster.zahn_cut_ms"},
      {phase_ms("construct.leaf_cluster_us") - partition - local - finish -
           zahn,
       "multilevel.leaf_cluster_ms (rest)"},
      {phase_ms("construct.levels_us"), "multilevel.levels_ms"},
      {phase_ms("construct.borders_us"), "multilevel.borders_ms"},
      {run.busy_ms("distance.tiers"), "distance.tiers_ms"},
      {run.busy_ms("overlay.network"), "overlay.network_ms"},
      {run.busy_ms("multilevel.router_ctor"), "multilevel.router_ctor_ms"},
  };
  std::sort(steps.rbegin(), steps.rend());
  std::printf("# setup shares:");
  for (const auto& [ms, name] : steps) {
    std::printf(" %s=%.1f%%", name.c_str(), 100.0 * ms / setup_ms);
  }
  std::printf("\n# largest setup layer: %s (%.1f%% of setup)\n",
              steps.front().second.c_str(),
              100.0 * steps.front().first / setup_ms);
}

}  // namespace

void run_ml_build(Run& run) {
  const bool smoke = run.opts().smoke;
  const std::size_t n = smoke ? kSmokeNodes : kNodes;
  const int setups = smoke ? 1 : 3;

  // Inputs, generated once and untimed.
  const std::vector<Point> coords = clustered_coords(n, kCloudSeed);
  ServicePlacement placement(n);
  for (std::size_t v = 0; v < n; ++v) {
    placement[v] = {ServiceId(static_cast<std::int32_t>(v % kCatalog))};
  }

  EndToEnd e2e;
  std::unique_ptr<MlStack> stack;
  const auto before = obs::MetricsRegistry::global().snapshot();
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    stack = std::make_unique<MlStack>();
    MlStack& s = *stack;
    {
      Run::Setup setup(run);
      s.dist = run.call("distance.tiers", [&] {
        return std::make_unique<CoordDistanceService>(coords);
      });
      s.hierarchy = run.call("multilevel.hierarchy", [&] {
        return std::make_unique<MultiLevelHierarchy>(
            coords, MultiLevelParams::bounded(kFanout, 8 * kFanout));
      });
      s.net = run.call("overlay.network", [&] {
        return std::make_unique<OverlayNetwork>(coords, placement);
      });
      s.router = run.call("multilevel.router_ctor", [&] {
        return std::make_unique<MultiLevelRouter>(*s.net, *s.hierarchy,
                                                  *s.dist);
      });
    }
  }
  print_setup_shares(run, run.busy_ms("e2e.setup"), before);

  const MlStack& s = *stack;
  {
    Run::Span measure(run, "e2e.measure");
    run.begin_measure(500);
    Rng rng = Rng(run.opts().seed).fork(100);
    const int last = static_cast<int>(n) - 1;
    while (run.more(e2e.requests)) {
      ServiceRequest req;
      req.source = NodeId(rng.uniform_int(0, last));
      req.destination = NodeId(rng.uniform_int(0, last));
      req.graph = ServiceGraph::linear(
          {ServiceId(rng.uniform_int(0, kCatalog - 1)),
           ServiceId(rng.uniform_int(0, kCatalog - 1))});
      run.set_request(e2e.requests + 1);
      const ServicePath path =
          run.call("multilevel.route", [&] { return s.router->route(req); });
      e2e.request_ms.push_back(run.last_ms());
      e2e.add_requests(1, run.last_ms());
      run.attempt();
      run.mix(path_digest(path));
      Run::Span check(run, "e2e.check");
      if (!path.found) {
        run.fail("request unrouted");
      } else if (!satisfies(path, req, *s.net)) {
        run.violate("route breaks its request (services, hosts, endpoints)");
      } else {
        e2e.add_cost(path.cost);
      }
    }
    run.set_request(0);
  }
  run.report(e2e);
}

}  // namespace e2e
