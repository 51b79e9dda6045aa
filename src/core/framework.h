// The HFC framework façade: one call builds the entire stack the paper
// describes — underlay, measurement, coordinates, clustering, HFC topology
// and the hierarchical router — and exposes the pieces experiments need.
//
//   FrameworkConfig config;
//   config.proxies = 250;
//   auto hfc = HfcFramework::build(config);
//   ServicePath path = hfc->route(request);
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/zahn.h"
#include "coords/gnp.h"
#include "distance/coord_distance.h"
#include "distance/truth_distance.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/hierarchical_router.h"
#include "services/workload.h"
#include "topology/overlay_placement.h"
#include "topology/transit_stub.h"
#include "util/rng.h"

namespace hfc {

/// Which HFC topology a framework build assembles. Both are HfcTopology
/// routed by HierarchicalServiceRouter; they differ in how the tree is
/// built.
///
///   kFlat       — the paper's bi-level topology over the Zahn clusters
///                 (every cluster pair gets a border pair, so border
///                 selection is quadratic in the cluster count — fine to
///                 ~100k proxies, the wall beyond).
///   kMultiLevel — a bounded-fanout tree built from the coordinates:
///                 per-parent sibling counts stay O(HFC_ML_FANOUT) as n
///                 grows, which is what carries construction to 1M
///                 proxies (DESIGN.md §13).
///   kAuto       — kMultiLevel once proxies >= HFC_ML_AUTO_N (default
///                 100000), kFlat below, so small-n behaviour — and every
///                 existing caller — is unchanged.
enum class TopologyScheme { kAuto, kFlat, kMultiLevel };

struct FrameworkConfig {
  /// Approximate router count of the generated underlay (Table 1 column
  /// "physical topology"). Rounded down to whole transit domains.
  std::size_t physical_routers = 300;
  std::size_t proxies = 250;
  std::size_t landmarks = 10;
  std::size_t clients = 40;

  /// Maximum relative inflation of one latency probe (§3.1 noise model).
  double measurement_noise = 0.10;

  GnpParams gnp;
  ZahnParams zahn;
  BorderSelection border_selection = BorderSelection::kClosestPair;
  WorkloadParams workload;
  HierarchicalRoutingParams routing;

  /// Topology/routing stack selection (see TopologyScheme above).
  TopologyScheme scheme = TopologyScheme::kAuto;
  /// Hierarchy parameters for multilevel builds. A zero group_fanout
  /// (the default) resolves to bounded-fanout mode with HFC_ML_FANOUT
  /// children per group (default 32) and leaf clusters of 8x that many
  /// nodes; callers wanting the legacy fixed-`levels` construction can
  /// build an HfcTopology from coordinates directly.
  MultiLevelParams multilevel;

  /// Row-cache capacity for the truth distance tier (0 = resolve via the
  /// HFC_DIST_CACHE_ROWS environment variable, then the built-in default).
  /// Bounds resident ground-truth distance state at cache_rows * proxies
  /// doubles instead of a dense O(proxies^2) matrix.
  std::size_t distance_cache_rows = 0;

  /// Master seed; every stochastic stage forks its own stream from it.
  std::uint64_t seed = 1;
};

class HfcFramework {
 public:
  /// Run the full construction pipeline. Throws std::invalid_argument on
  /// inconsistent configuration.
  [[nodiscard]] static std::unique_ptr<HfcFramework> build(
      const FrameworkConfig& config);

  HfcFramework(const HfcFramework&) = delete;
  HfcFramework& operator=(const HfcFramework&) = delete;

  [[nodiscard]] const FrameworkConfig& config() const { return config_; }
  [[nodiscard]] const TransitStubTopology& underlay() const {
    return underlay_;
  }
  [[nodiscard]] const OverlayPlacement& placement() const {
    return placement_;
  }
  [[nodiscard]] const DistanceMap& distance_map() const {
    return distance_map_;
  }
  [[nodiscard]] const OverlayNetwork& overlay() const { return *overlay_; }

  /// True when this build assembled the tree from coordinates (kMultiLevel,
  /// or kAuto at large n).
  [[nodiscard]] bool is_multilevel() const { return multilevel_; }

  [[nodiscard]] const HfcTopology& topology() const { return *topology_; }
  [[nodiscard]] const HierarchicalServiceRouter& router() const {
    return *router_;
  }

  /// The coordinate distance tier every construction stage queries (what
  /// proxies believe). Valid while the framework lives.
  [[nodiscard]] const CoordDistanceService& estimated_service() const {
    return *coord_service_;
  }

  /// The ground-truth tier: lazily derived per-proxy underlay delay rows
  /// in a bounded LRU (capacity `config.distance_cache_rows`).
  [[nodiscard]] const TruthDistanceService& truth_service() const {
    return *proxy_truth_;
  }

  /// What proxies believe: coordinate-space distance (the system's own
  /// estimate). The closure shares ownership of the coordinate service,
  /// but the framework must outlive it regardless.
  [[nodiscard]] OverlayDistance estimated_distance() const;

  /// Ground truth: shortest underlay delay between proxy attachment
  /// routers — what experiments measure final paths with. Derived on
  /// demand from the truth tier; no dense matrix is materialized.
  [[nodiscard]] OverlayDistance true_distance() const;

  /// The proxy nearest (in true delay) to each configured client; the
  /// endpoint pool requests are drawn from.
  [[nodiscard]] const std::vector<NodeId>& client_proxies() const {
    return client_proxies_;
  }

  /// Route hierarchically (aggregate state), paper §5.
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const {
    return router_->route(request);
  }

  /// A request batch over the client endpoint pool, using the configured
  /// workload parameters.
  [[nodiscard]] std::vector<ServiceRequest> generate_requests(
      std::size_t count, Rng& rng) const;

 private:
  HfcFramework() = default;

  FrameworkConfig config_;
  TransitStubTopology underlay_;
  OverlayPlacement placement_;
  DistanceMap distance_map_;
  /// Distance tiers, declared before their consumers (topology_, router_)
  /// so they are destroyed after them.
  std::shared_ptr<const CoordDistanceService> coord_service_;
  std::shared_ptr<const TruthDistanceService> proxy_truth_;
  std::unique_ptr<OverlayNetwork> overlay_;
  std::unique_ptr<HfcTopology> topology_;
  std::unique_ptr<HierarchicalServiceRouter> router_;
  bool multilevel_ = false;
  std::vector<NodeId> client_proxies_;
};

}  // namespace hfc
