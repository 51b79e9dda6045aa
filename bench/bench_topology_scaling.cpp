// Topology-construction scaling: the spatial-index path vs the quadratic
// brute-force scans (DESIGN.md §11), and the construction stack that
// carries the build to n = 1,000,000 proxies (DESIGN.md §13).
//
// Phase 1 (A/B, default n = 20000): build the full structural pipeline —
// Zahn clustering over the Euclidean MST plus HFC closest-pair border
// selection — twice over the same clustered point cloud, once over a
// distance service with its coordinates hidden (the quadratic scans) and
// once over the coordinate tier (the kd-tree), and compare wall-clock
// and the `topology.candidate_links` /
// `cluster.mst_candidate_pairs` counters. At the acceptance size
// (n >= 20000) the bench *asserts* a >= 100x border-candidate reduction
// and a >= 12x MST-candidate reduction (12.3x at n = 20000, dim 5); reduced
// runs only report. The counts are deterministic for any thread count,
// so the assertions hold on any host. The wall-clock speedup is printed
// but not asserted: it swings with the host and the pool size (9.9x at 4
// threads, 5.4x at 1 on a shared 4-vCPU container).
//
// Phase 2 (A/B, default n = 100000): the Borůvka MST alone, the single
// global pruned sweep vs the group-local pipeline (DESIGN.md §14). The
// two must produce bit-identical edge lists; the bench asserts that and
// reports the wall-clock, candidate-pair and node-visit counts. The
// pipeline's cells hold n/8 points, capped at the library default of
// 4096, so reduced runs still split into several cells.
//
// Phase 3 (default n = 1000000): build + route at a proxy count where the
// flat topology's all-pairs border selection is infeasible, through the
// bounded-fanout multilevel hierarchy. Asserts that coordinate-tier plus
// hierarchy resident state stays inside a linear memory ceiling — the
// dense n^2/2 distance matrix alone would be ~4 TB — and (at n >= 500000)
// that process peak RSS stays under a hard ceiling.
//
// Knobs: HFC_TOPO_N (phase-3 proxies, default 1000000), HFC_TOPO_MST_N
// (phase-2 proxies, default 100000), HFC_TOPO_CMP_N (phase-1 proxies,
// default 20000), HFC_TOPO_REQUESTS (routed requests, default 1000),
// HFC_TOPO_DIM (coordinate dimension, default 5), HFC_ML_FANOUT (phase-3
// hierarchy fanout). The sanitizer legs of scripts/check.sh run reduced
// sizes.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "src/cluster/mst.h"
#include "src/cluster/zahn.h"
#include "src/distance/coord_distance.h"
#include "src/obs/metrics.h"
#include "src/overlay/hfc_topology.h"
#include "src/overlay/overlay_network.h"
#include "src/routing/hierarchical_router.h"
#include "src/services/service_graph.h"
#include "src/util/rng.h"
#include "tests/oracle/scan_distance.h"

namespace {

using namespace hfc;

/// Clustered point cloud: centers on a coarse integer lattice (spacing
/// 100), points uniform in a radius-4 box around their center — the
/// well-separated geometry Zahn's inconsistency test splits cleanly.
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

struct BuildResult {
  double wall_ms = 0.0;
  std::size_t clusters = 0;
  std::uint64_t border_candidates = 0;
  std::uint64_t mst_candidates = 0;
};

/// Cluster + build the HFC topology once over `dist` (coordinates hidden
/// or exposed), returning wall-clock and the candidate-counter deltas.
BuildResult build_once(const DistanceService& dist) {
  obs::Counter& borders =
      obs::MetricsRegistry::global().counter("topology.candidate_links");
  obs::Counter& mst =
      obs::MetricsRegistry::global().counter("cluster.mst_candidate_pairs");
  const std::uint64_t borders0 = borders.value();
  const std::uint64_t mst0 = mst.value();
  const auto t0 = std::chrono::steady_clock::now();
  const Clustering clustering = cluster_nodes(dist);
  const HfcTopology topo(clustering, dist);
  BuildResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.clusters = topo.live_cluster_count();
  r.border_candidates = borders.value() - borders0;
  r.mst_candidates = mst.value() - mst0;
  return r;
}

struct MstResult {
  double wall_ms = 0.0;
  std::vector<MstEdge> edges;
  std::uint64_t candidates = 0;
  std::uint64_t nodes_visited = 0;
};

/// One global Borůvka MST over the kd-tree, with candidate-pair and
/// tree-node-visit counter deltas.
MstResult mst_once(const std::vector<Point>& coords) {
  obs::Counter& cand =
      obs::MetricsRegistry::global().counter("cluster.mst_candidate_pairs");
  obs::Counter& visits =
      obs::MetricsRegistry::global().counter("spatial.nodes_visited");
  const std::uint64_t cand0 = cand.value();
  const std::uint64_t visits0 = visits.value();
  const auto t0 = std::chrono::steady_clock::now();
  MstResult r;
  r.edges = euclidean_mst_spatial(coords);
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.candidates = cand.value() - cand0;
  r.nodes_visited = visits.value() - visits0;
  return r;
}

}  // namespace

int main() {
  using namespace hfc;
  const std::size_t n = benchutil::env_size("HFC_TOPO_N", 1000000);
  const std::size_t mst_n = benchutil::env_size("HFC_TOPO_MST_N", 100000);
  const std::size_t cmp_n = benchutil::env_size("HFC_TOPO_CMP_N", 20000);
  const std::size_t requests = benchutil::env_size("HFC_TOPO_REQUESTS", 1000);
  const std::size_t dim = benchutil::env_size("HFC_TOPO_DIM", 5);
  benchutil::BenchJson json("topology_scaling");

  // ---- Phase 1: brute vs spatial A/B at cmp_n --------------------------
  std::cout << "Topology construction A/B at n=" << cmp_n << " (dim=" << dim
            << ")\n";
  const CoordDistanceService cmp_dist(clustered_coords(cmp_n, dim, 4071));
  // Hiding the coordinates sends every consumer to its scan.
  const BuildResult brute = build_once(oracle::ScanDistance(cmp_dist));
  const BuildResult spatial = build_once(cmp_dist);
  const double speedup = brute.wall_ms / std::max(spatial.wall_ms, 1e-9);
  const double border_reduction =
      static_cast<double>(brute.border_candidates) /
      std::max<double>(static_cast<double>(spatial.border_candidates), 1.0);
  const double mst_reduction =
      static_cast<double>(brute.mst_candidates) /
      std::max<double>(static_cast<double>(spatial.mst_candidates), 1.0);
  std::cout << "  brute:   " << benchutil::fmt(brute.wall_ms, 0) << " ms, "
            << brute.clusters << " clusters, border candidates "
            << brute.border_candidates << ", mst candidates "
            << brute.mst_candidates << "\n"
            << "  kdtree:  " << benchutil::fmt(spatial.wall_ms, 0) << " ms, "
            << spatial.clusters << " clusters, border candidates "
            << spatial.border_candidates << ", mst candidates "
            << spatial.mst_candidates << "\n"
            << "  speedup " << benchutil::fmt(speedup, 1)
            << "x, border candidate reduction "
            << benchutil::fmt(border_reduction, 1) << "x, mst reduction "
            << benchutil::fmt(mst_reduction, 1) << "x\n";
  if (brute.clusters != spatial.clusters) {
    std::cerr << "FATAL: brute and spatial paths built different cluster "
                 "counts ("
              << brute.clusters << " vs " << spatial.clusters << ")\n";
    return 1;
  }
  if (cmp_n >= 20000) {
    if (mst_reduction < 12.0) {
      std::cerr << "FATAL: mst candidate reduction "
                << benchutil::fmt(mst_reduction, 1)
                << "x below the asserted 12x at n=" << cmp_n << "\n";
      return 1;
    }
    if (border_reduction < 100.0) {
      std::cerr << "FATAL: border candidate reduction "
                << benchutil::fmt(border_reduction, 1)
                << "x below the asserted 100x at n=" << cmp_n << "\n";
      return 1;
    }
  }

  // ---- Phase 2: global pruned sweep at mst_n --------------------------
  std::cout << "\nBorůvka sweep A/B at n=" << mst_n << "\n";
  const std::vector<Point> mst_coords = clustered_coords(mst_n, dim, 4074);
  const MstResult pruned = mst_once(mst_coords);
  std::cout << "  pruned:  " << benchutil::fmt(pruned.wall_ms, 0) << " ms, "
            << pruned.candidates << " candidates, " << pruned.nodes_visited
            << " node visits\n";

  // ---- Phase 2b: group-local pipeline vs global sweep at mst_n ---------
  // The DESIGN.md §14 pipeline must return the bit-identical tree; the
  // wall-clock delta here is the per-sweep win the 1M build banks on.
  const std::size_t cell_limit = std::clamp<std::size_t>(
      mst_n / 8, 2, kGroupPipelineCellPoints);
  obs::Counter& lb_skips =
      obs::MetricsRegistry::global().counter("cluster.mst_lb_skips");
  const std::uint64_t skips0 = lb_skips.value();
  const auto g0 = std::chrono::steady_clock::now();
  const std::vector<MstEdge> grouped =
      euclidean_mst_grouped(mst_coords, cell_limit);
  const double grouped_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - g0)
                                .count();
  const std::uint64_t grouped_skips = lb_skips.value() - skips0;
  if (grouped.size() != pruned.edges.size()) {
    std::cerr << "FATAL: grouped and global MSTs differ in size ("
              << grouped.size() << " vs " << pruned.edges.size() << ")\n";
    return 1;
  }
  for (std::size_t i = 0; i < grouped.size(); ++i) {
    if (grouped[i].a != pruned.edges[i].a ||
        grouped[i].b != pruned.edges[i].b ||
        grouped[i].length != pruned.edges[i].length) {
      std::cerr << "FATAL: MST edge " << i << " differs between grouped ("
                << grouped[i].a << "," << grouped[i].b << ") and global ("
                << pruned.edges[i].a << "," << pruned.edges[i].b << ")\n";
      return 1;
    }
  }
  const double grouped_speedup = pruned.wall_ms / std::max(grouped_ms, 1e-9);
  std::cout << "  grouped: " << benchutil::fmt(grouped_ms, 0) << " ms ("
            << benchutil::fmt(grouped_speedup, 2)
            << "x vs global pruned, bit-identical), " << grouped_skips
            << " lb-cache skips\n";

  // ---- Phase 3: multilevel build + route at n under memory ceilings ----
  // Resident ceiling: linear in n — the coordinate tier plus all hierarchy
  // state (membership lists, sibling tables). The dense pairwise
  // matrix this pipeline used to imply is shown for contrast. Peak RSS is
  // additionally bounded at large n (skipped on reduced runs, where
  // sanitizer shadow memory dominates).
  const double ceiling_bytes =
      64.0 * 1024.0 * 1024.0 + 512.0 * static_cast<double>(n);
  const double rss_ceiling_bytes = 1.5 * 1024.0 * 1024.0 * 1024.0;
  const double dense_bytes = 0.5 * static_cast<double>(n) *
                             static_cast<double>(n + 1) * sizeof(double);
  std::cout << "\nMultilevel build + route at n=" << n
            << " (resident ceiling "
            << benchutil::fmt(ceiling_bytes / (1024.0 * 1024.0), 1)
            << " MiB; dense matrix would be "
            << benchutil::fmt(dense_bytes / (1024.0 * 1024.0 * 1024.0), 1)
            << " GiB)\n";
  std::vector<Point> coords = clustered_coords(n, dim, 4072);
  const std::size_t fanout = benchutil::env_size("HFC_ML_FANOUT", 32);
  // Per-phase wall-clock attribution: the construction stack accumulates
  // microsecond counters per phase (partition, local MST, finish sweep,
  // Zahn cut, leaf clustering total, upper levels, border selection,
  // router capability sync); deltas around the build break the headline
  // number down.
  constexpr const char* kPhases[] = {
      "construct.partition_us", "construct.local_mst_us",
      "construct.finish_mst_us", "construct.zahn_cut_us",
      "construct.leaf_cluster_us", "construct.levels_us",
      "construct.borders_us", "construct.router_sync_us",
  };
  constexpr std::size_t kPhaseCount = std::size(kPhases);
  std::uint64_t phase0[kPhaseCount];
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phase0[i] = obs::MetricsRegistry::global().counter(kPhases[i]).value();
  }
  const auto b0 = std::chrono::steady_clock::now();
  const CoordDistanceService dist(coords);
  const HfcTopology hierarchy(
      coords, MultiLevelParams::bounded(fanout, 8 * fanout));
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - b0)
                              .count();
  const auto check_ceiling = [&](const char* stage) {
    const double resident = static_cast<double>(dist.resident_bytes()) +
                            static_cast<double>(hierarchy.resident_bytes());
    if (resident > ceiling_bytes) {
      std::cerr << "FATAL: " << stage << ": coord + hierarchy resident state "
                << resident << " B exceeds ceiling " << ceiling_bytes
                << " B\n";
      std::exit(1);
    }
    if (n >= 500000 &&
        static_cast<double>(benchutil::peak_rss_bytes()) > rss_ceiling_bytes) {
      std::cerr << "FATAL: " << stage << ": peak RSS "
                << benchutil::peak_rss_bytes() << " B exceeds ceiling "
                << rss_ceiling_bytes << " B\n";
      std::exit(1);
    }
  };
  check_ceiling("post-build");
  std::cout << "  build: " << benchutil::fmt(build_ms, 0) << " ms, "
            << hierarchy.levels() << " levels, " << hierarchy.group_count()
            << " groups, resident "
            << benchutil::fmt(static_cast<double>(dist.resident_bytes() +
                                                  hierarchy.resident_bytes()) /
                                  (1024.0 * 1024.0),
                              1)
            << " MiB, peak RSS "
            << benchutil::fmt(static_cast<double>(benchutil::peak_rss_bytes()) /
                                  (1024.0 * 1024.0),
                              1)
            << " MiB\n";

  // Service routing over the hierarchy: a small catalog, one service per
  // proxy, linear two-service request chains between random endpoints.
  // The overlay takes ownership of the coordinate cloud (the hierarchy
  // and distance tier keep their own state) instead of a third copy.
  constexpr std::size_t kCatalog = 64;
  ServicePlacement placement(n);
  for (std::size_t v = 0; v < n; ++v) {
    placement[v] = {ServiceId(static_cast<std::int32_t>(v % kCatalog))};
  }
  const OverlayNetwork net(std::move(coords), std::move(placement));
  const HierarchicalServiceRouter router(net, hierarchy, dist);
  double phase_ms[kPhaseCount];
  std::cout << "  phases:";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const std::uint64_t delta =
        obs::MetricsRegistry::global().counter(kPhases[i]).value() - phase0[i];
    phase_ms[i] = static_cast<double>(delta) / 1000.0;
    // "construct.partition_us" -> "partition"
    std::string label(kPhases[i] + std::strlen("construct."));
    label.resize(label.size() - std::strlen("_us"));
    std::cout << " " << label << "=" << benchutil::fmt(phase_ms[i], 0) << "ms";
  }
  std::cout << "\n";
  Rng rng(4073);
  const auto r0 = std::chrono::steady_clock::now();
  std::size_t found = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    ServiceRequest request;
    request.source =
        NodeId(rng.uniform_int(0, static_cast<int>(n) - 1));
    request.destination =
        NodeId(rng.uniform_int(0, static_cast<int>(n) - 1));
    request.graph = ServiceGraph::linear(
        {ServiceId(rng.uniform_int(0, kCatalog - 1)),
         ServiceId(rng.uniform_int(0, kCatalog - 1))});
    if (router.route(request).found) ++found;
  }
  const double route_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - r0)
                              .count();
  check_ceiling("post-routing");
  if (found == 0) {
    std::cerr << "FATAL: no request routed successfully\n";
    return 1;
  }
  std::cout << "  routed " << found << "/" << requests << " requests in "
            << benchutil::fmt(route_ms, 0) << " ms\n";

  json.add_trials(5);
  json.note("cmp_n", static_cast<double>(cmp_n));
  json.note("mst_n", static_cast<double>(mst_n));
  json.note("n", static_cast<double>(n));
  json.note("dim", static_cast<double>(dim));
  json.note("brute_build_ms", brute.wall_ms);
  json.note("spatial_build_ms", spatial.wall_ms);
  json.note("construction_speedup", speedup);
  json.note("border_candidate_reduction", border_reduction);
  json.note("mst_candidate_reduction", mst_reduction);
  json.note("mst_pruned_ms", pruned.wall_ms);
  json.note("mst_pruned_candidates", static_cast<double>(pruned.candidates));
  json.note("mst_pruned_node_visits",
            static_cast<double>(pruned.nodes_visited));
  json.note("mst_grouped_ms", grouped_ms);
  json.note("mst_grouped_speedup", grouped_speedup);
  json.note("mst_grouped_lb_skips", static_cast<double>(grouped_skips));
  json.note("build_ms_full", build_ms);
  json.note("phase_partition_ms", phase_ms[0]);
  json.note("phase_local_mst_ms", phase_ms[1]);
  json.note("phase_finish_mst_ms", phase_ms[2]);
  json.note("phase_zahn_cut_ms", phase_ms[3]);
  json.note("phase_leaf_cluster_ms", phase_ms[4]);
  json.note("phase_levels_ms", phase_ms[5]);
  json.note("phase_borders_ms", phase_ms[6]);
  json.note("phase_router_sync_ms", phase_ms[7]);
  json.note("hierarchy_levels", static_cast<double>(hierarchy.levels()));
  json.note("hierarchy_groups", static_cast<double>(hierarchy.group_count()));
  json.note("route_ms", route_ms);
  json.note("requests_routed", static_cast<double>(found));
  json.note("ceiling_bytes", ceiling_bytes);
  json.note("resident_bytes",
            static_cast<double>(dist.resident_bytes() +
                                hierarchy.resident_bytes()));
  return 0;
}
