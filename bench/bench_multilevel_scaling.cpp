// Extension bench — multi-level HFC hierarchies.
//
// Part 1: the paper's topology is bi-level (one clustering level under a
// virtual root). This part compares 1, 2 and 3 clustering levels on the
// Table 1 environments: per-proxy coordinate state (the Figure 9a metric
// under generalised visibility) against the average service path length
// (the Figure 10 metric) — deeper hierarchies trade path stretch for
// state.
//
// Part 2 (default n = 100000, HFC_ML_STRETCH_N): stretch of multilevel
// routes against the *flat oracle* — the unconstrained optimum
// min_h d(s, h) + d(h, t) over every host h of the requested service,
// which is exactly what a router with global knowledge would pick for a
// single-service chain. Stretch percentiles (p50/p90/p99/max) land in
// BENCH_multilevel_scaling.json; this is the quality ledger for the
// bounded-fanout hierarchy the 1M build uses, at a size where the flat
// all-pairs topology itself is unbuildable but the single-service oracle
// is still an O(hosts) scan per request.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <vector>

#include "bench/common.h"
#include "core/experiment.h"
#include "overlay/hfc_topology.h"
#include "routing/hierarchical_router.h"
#include "services/service_graph.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace hfc;

/// Clustered cloud matching bench_topology_scaling's geometry: centers on
/// an integer lattice (spacing 100), points in a radius-4 box around them.
std::vector<Point> clustered_coords(std::size_t n, std::size_t dim,
                                    std::uint64_t seed) {
  const std::size_t centers = std::max<std::size_t>(4, n / 400);
  std::size_t side = 1;
  while (true) {
    std::size_t cells = 1;
    for (std::size_t d = 0; d < dim; ++d) cells *= side;
    if (cells >= centers) break;
    ++side;
  }
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t cell = i % centers;
    Point p(dim, 0.0);
    for (std::size_t d = 0; d < dim; ++d) {
      p[d] = static_cast<double>(cell % side) * 100.0 +
             rng.uniform_real(-4.0, 4.0);
      cell /= side;
    }
    pts.push_back(std::move(p));
  }
  return pts;
}

}  // namespace

int main() {
  using namespace hfc;
  const std::size_t requests = benchutil::env_size(
      "HFC_REQUESTS", benchutil::full_scale() ? 500 : 150);
  benchutil::BenchJson json("multilevel_scaling");

  std::cout << "Multi-level HFC: state vs path length ("
            << requests << " requests per cell)\n";
  std::cout << format_row({"proxies", "levels", "groups L1/L2/L3",
                           "coord states", "avg path (ms)"})
            << "\n";
  for (const Environment& env : paper_environments()) {
    const auto fw = HfcFramework::build(config_for(env, 8500));
    const OverlayDistance truth = fw->true_distance();
    Rng rng(8600);
    const auto batch = fw->generate_requests(requests, rng);

    for (std::size_t levels : {1u, 2u, 3u}) {
      MultiLevelParams params;
      params.levels = levels;
      // Equal eagerness at every level: the factor-growth default is
      // conservative and rarely splits the (fairly uniform) centroid
      // clouds transit-stub coordinate spaces produce.
      params.factor_growth = 1.0;
      const HfcTopology hierarchy(fw->distance_map().proxy_coords, params);
      const HierarchicalServiceRouter router(fw->overlay(), hierarchy,
                                             fw->estimated_distance());
      RunningStat coord;
      for (NodeId n : fw->overlay().all_nodes()) {
        coord.add(static_cast<double>(hierarchy.coordinate_state_count(n)));
      }
      RunningStat lengths;
      std::size_t failures = 0;
      for (const ServiceRequest& request : batch) {
        const ServicePath path = router.route(request);
        if (!path.found) {
          ++failures;
          continue;
        }
        lengths.add(path_length(path, truth));
      }
      std::string shape;
      for (std::size_t l = 1; l <= hierarchy.levels(); ++l) {
        if (l > 1) shape += "/";
        shape += std::to_string(hierarchy.groups_at(l).size());
      }
      std::cout << format_row({std::to_string(env.proxies),
                               std::to_string(hierarchy.levels()),
                               shape, benchutil::fmt(coord.mean(), 1),
                               benchutil::fmt(lengths.mean())})
                << "\n";
      if (failures > 0) {
        std::cout << "  (" << failures << " requests unroutable)\n";
      }
    }
  }
  std::cout << "\nExpected: more levels -> fewer coordinate states per "
               "proxy, slightly longer paths.\n";

  // ---- Part 2: stretch vs the flat oracle at scale ---------------------
  const std::size_t stretch_n = benchutil::env_size("HFC_ML_STRETCH_N", 100000);
  const std::size_t stretch_requests =
      benchutil::env_size("HFC_ML_STRETCH_REQUESTS", 500);
  constexpr std::size_t kDim = 5;
  constexpr int kCatalog = 64;
  std::cout << "\nMultilevel vs flat oracle at n=" << stretch_n << " ("
            << stretch_requests << " single-service requests)\n";
  const std::vector<Point> coords = clustered_coords(stretch_n, kDim, 8601);
  const std::size_t fanout = env_size_t("HFC_ML_FANOUT", 32, 2);
  const auto b0 = std::chrono::steady_clock::now();
  const HfcTopology hierarchy(
      coords, MultiLevelParams::bounded(fanout, 8 * fanout));
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - b0)
                              .count();

  ServicePlacement placement(stretch_n);
  std::vector<std::vector<NodeId>> hosts(kCatalog);
  for (std::size_t v = 0; v < stretch_n; ++v) {
    const int s = static_cast<int>(v % kCatalog);
    placement[v] = {ServiceId(s)};
    hosts[s].push_back(NodeId(static_cast<std::int32_t>(v)));
  }
  const OverlayNetwork net(coords, std::move(placement));
  const OverlayDistance truth = net.coord_distance_fn();
  const HierarchicalServiceRouter router(net, hierarchy, truth);

  Rng rng(8602);
  std::vector<double> stretches;
  stretches.reserve(stretch_requests);
  std::size_t failures = 0;
  for (std::size_t i = 0; i < stretch_requests; ++i) {
    ServiceRequest request;
    request.source =
        NodeId(rng.uniform_int(0, static_cast<int>(stretch_n) - 1));
    do {
      request.destination =
          NodeId(rng.uniform_int(0, static_cast<int>(stretch_n) - 1));
    } while (request.destination == request.source);
    const ServiceId sid(rng.uniform_int(0, kCatalog - 1));
    request.graph = ServiceGraph::linear({sid});
    const ServicePath path = router.route(request);
    if (!path.found) {
      ++failures;
      continue;
    }
    // The flat oracle: global knowledge, no topology constraints.
    double oracle = std::numeric_limits<double>::infinity();
    for (const NodeId h : hosts[sid.idx()]) {
      oracle = std::min(oracle, truth(request.source, h) +
                                    truth(h, request.destination));
    }
    const double ml = path_length(path, truth);
    if (oracle > 0.0) stretches.push_back(ml / oracle);
  }
  if (failures > 0 || stretches.empty()) {
    std::cerr << "FATAL: " << failures << " unroutable requests in the "
              << "stretch stage (every service is hosted)\n";
    return 1;
  }
  std::sort(stretches.begin(), stretches.end());
  RunningStat stretch_stat;
  for (const double s : stretches) stretch_stat.add(s);
  const double p50 = percentile(stretches, 50.0);
  const double p90 = percentile(stretches, 90.0);
  const double p99 = percentile(stretches, 99.0);
  const double worst = stretches.back();
  std::cout << "  build " << benchutil::fmt(build_ms, 0) << " ms, stretch"
            << " mean " << benchutil::fmt(stretch_stat.mean(), 3) << ", p50 "
            << benchutil::fmt(p50, 3) << ", p90 " << benchutil::fmt(p90, 3)
            << ", p99 " << benchutil::fmt(p99, 3) << ", max "
            << benchutil::fmt(worst, 3) << "\n";
  if (stretches.front() < 1.0 - 1e-9) {
    std::cerr << "FATAL: stretch " << stretches.front()
              << " below 1 — the oracle is a lower bound, so the routed "
                 "path or the oracle scan is wrong\n";
    return 1;
  }

  json.add_trials(stretch_requests);
  json.note("stretch_n", static_cast<double>(stretch_n));
  json.note("stretch_requests", static_cast<double>(stretch_requests));
  json.note("stretch_build_ms", build_ms);
  json.note("stretch_mean", stretch_stat.mean());
  json.note("stretch_p50", p50);
  json.note("stretch_p90", p90);
  json.note("stretch_p99", p99);
  json.note("stretch_max", worst);
  return 0;
}
