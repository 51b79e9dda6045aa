// Distance-tier scaling: build the full HFC stack and route requests at a
// proxy count where the legacy dense distance matrices are simply
// infeasible, and assert that resident distance state stays inside the
// row-cache bound the whole way.
//
// At the default n = 20000 proxies, one proxy-pairwise SymMatrix<double>
// alone is n*(n+1)/2 * 8 B ~= 1.6 GB — and the old pipeline materialized
// several (oracle truth, evaluation truth, mesh routing). The tiered
// DistanceService replaces all of them with bounded LRU row caches
// (HFC_DIST_CACHE_ROWS, default 256 rows), so the same construction
// + routing pipeline runs in O(cache_rows * n) distance memory. This
// bench is the enforcement point: it exits 1 if the truth tier ever
// reports more resident bytes than its configured ceiling.
//
// Knobs: HFC_DIST_N (proxies, default 20000), HFC_DIST_REQUESTS (routed
// requests, default 1000), HFC_DIST_CACHE_ROWS (row-cache capacity,
// default 256). The sanitizer legs of scripts/check.sh run a reduced
// HFC_DIST_N=400 so the whole pipeline is exercised under ASan quickly.
#include <cstdlib>
#include <iostream>

#include "bench/common.h"
#include "core/framework.h"
#include "src/obs/metrics.h"

int main() {
  using namespace hfc;
  const std::size_t n = benchutil::env_size("HFC_DIST_N", 20000);
  const std::size_t requests = benchutil::env_size("HFC_DIST_REQUESTS", 1000);
  const std::size_t cache_rows =
      benchutil::env_size("HFC_DIST_CACHE_ROWS", 256);
  benchutil::BenchJson json("distance_scaling");

  FrameworkConfig config;
  config.proxies = n;
  // Enough stub routers for distinct proxy + landmark + client attachment.
  config.physical_routers = n + n / 4 + 200;
  config.landmarks = 16;
  config.clients = 64;
  config.distance_cache_rows = cache_rows;
  // Scale the catalog with n so per-service provider sets stay at paper
  // density (tens of providers) instead of thousands.
  config.workload.catalog_size = std::max<std::size_t>(40, n / 20);
  config.seed = 1206;

  const std::size_t endpoint_count = config.landmarks + n;
  const double dense_bytes =
      0.5 * static_cast<double>(endpoint_count) *
      static_cast<double>(endpoint_count + 1) * sizeof(double);
  const double ceiling_bytes =
      static_cast<double>(cache_rows) * static_cast<double>(n) *
      sizeof(double);
  std::cout << "Distance scaling at n=" << n << " proxies (cache "
            << cache_rows << " rows)\n"
            << "  dense proxy-pairwise matrix would be "
            << benchutil::fmt(dense_bytes / (1024.0 * 1024.0), 1)
            << " MiB; resident ceiling is "
            << benchutil::fmt(ceiling_bytes / (1024.0 * 1024.0), 1)
            << " MiB\n";

  const auto check_ceiling = [&](const char* stage,
                                 const TruthDistanceService& truth) {
    const std::size_t limit =
        truth.cache_rows() * truth.size() * sizeof(double);
    if (truth.resident_bytes() > limit ||
        truth.resident_rows() > truth.cache_rows()) {
      std::cerr << "FATAL: " << stage << ": truth tier resident state "
                << truth.resident_bytes() << " B / " << truth.resident_rows()
                << " rows exceeds cache bound " << limit << " B / "
                << truth.cache_rows() << " rows\n";
      std::exit(1);
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto fw = HfcFramework::build(config);
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  check_ceiling("post-build", fw->truth_service());
  std::cout << "  build: " << benchutil::fmt(build_ms, 0) << " ms, "
            << fw->topology().cluster_count() << " clusters, truth tier "
            << fw->truth_service().resident_rows() << "/" << cache_rows
            << " rows resident\n";

  // Route the request batch hierarchically and price every found path
  // against ground truth — each hop lookup goes through the bounded
  // truth tier, exactly where a dense evaluation matrix used to sit.
  Rng request_rng(1207);
  const auto batch = fw->generate_requests(requests, request_rng);
  const OverlayDistance truth = fw->true_distance();
  const auto r0 = std::chrono::steady_clock::now();
  std::size_t found = 0;
  double true_cost_sum = 0.0;
  for (const ServiceRequest& request : batch) {
    const ServicePath path = fw->route(request);
    if (!path.found) continue;
    ++found;
    for (std::size_t h = 0; h + 1 < path.hops.size(); ++h) {
      true_cost_sum += truth(path.hops[h].proxy, path.hops[h + 1].proxy);
    }
  }
  const double route_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - r0)
                              .count();
  check_ceiling("post-routing", fw->truth_service());
  if (found == 0) {
    std::cerr << "FATAL: no request routed successfully\n";
    return 1;
  }
  std::cout << "  routed " << found << "/" << batch.size() << " requests in "
            << benchutil::fmt(route_ms, 0) << " ms; mean true path cost "
            << benchutil::fmt(true_cost_sum / static_cast<double>(found), 2)
            << " ms\n"
            << "  truth tier after routing: "
            << fw->truth_service().resident_rows() << "/" << cache_rows
            << " rows, "
            << benchutil::fmt(static_cast<double>(
                                  fw->truth_service().resident_bytes()) /
                                  (1024.0 * 1024.0),
                              1)
            << " MiB resident (coord tier "
            << benchutil::fmt(static_cast<double>(
                                  fw->estimated_service().resident_bytes()) /
                                  (1024.0 * 1024.0),
                              1)
            << " MiB)\n";

  json.add_trials(1);
  json.note("n", static_cast<double>(n));
  json.note("cache_rows", static_cast<double>(cache_rows));
  json.note("build_ms", build_ms);
  json.note("route_ms", route_ms);
  json.note("requests_routed", static_cast<double>(found));
  json.note("mean_true_path_cost_ms",
            true_cost_sum / static_cast<double>(found));
  json.note("dense_matrix_bytes", dense_bytes);
  json.note("truth_resident_bytes",
            static_cast<double>(fw->truth_service().resident_bytes()));
  json.note("coord_resident_bytes",
            static_cast<double>(fw->estimated_service().resident_bytes()));
  return 0;
}
