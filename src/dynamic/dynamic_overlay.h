// Dynamic membership for the HFC overlay — the paper's §7 future work:
// "we should allow proxies to join and leave dynamically. While we can let
// future proxies join clusters of their nearest neighbors, multiple joins
// and leaves may deteriorate the quality of clustering. Thus some kind of
// re-structuring mechanism needs to be devised."
//
// `DynamicHfcOverlay` manages a universe of proxies with stable NodeIds
// that can be deactivated (leave) and re-activated (join). Joins follow
// the paper's nearest-neighbour rule: the joining proxy enters the cluster
// of its nearest active proxy — no global re-clustering. The quality of
// the maintained clustering relative to a fresh Zahn run is observable
// (`clustering_quality`), and `restructure()` is the re-structuring
// mechanism: a full re-cluster of the active set.
//
// Churn maintenance is incremental (DESIGN.md §9): routing state lives
// at universe level — one OverlayNetwork/HfcTopology/
// HierarchicalServiceRouter over *all* universe nodes, inactive nodes
// simply unclustered. A join/leave mutates the topology in place
// (membership lists + border-pair repair scoped to the affected cluster
// pairs) and the router re-derives only the SCT_C entries whose cluster
// generation changed. Distance queries go through the coordinate tier
// (CoordDistanceService). `apply()` batches events so k events touching
// one cluster pay one border repair per affected cluster pair, fanned
// across the thread pool.
//
// After any mutation sequence the incremental state is equivalent to a
// from-scratch rebuild of the same active set: same partition, same
// border pairs (up to exact distance ties — a fresh scan keeps the
// lex-min pair, incremental repair keeps the incumbent), same routes.
// tests/oracle/full_rebuild.h is that from-scratch rebuild, built from
// the universe accessors below. Every public API speaks universe NodeIds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/zahn.h"
#include "distance/coord_distance.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/hierarchical_router.h"
#include "routing/service_path.h"
#include "spatial/dynamic_set.h"

namespace hfc {

/// How DynamicHfcOverlay maintains routing state across churn: O(Δ)
/// in-place repair + per-cluster SCT invalidation, the only mode.
/// Kept (with the constructor's trailing parameter) because the
/// end-to-end benchmark driver names it.
enum class ChurnMode { kIncremental };

/// One membership event for the batched mutation API.
struct ChurnEvent {
  enum class Kind { kActivate, kDeactivate, kAdd };

  static ChurnEvent make_activate(NodeId node) {
    return ChurnEvent{Kind::kActivate, node, {}, {}};
  }
  static ChurnEvent make_deactivate(NodeId node) {
    return ChurnEvent{Kind::kDeactivate, node, {}, {}};
  }
  static ChurnEvent make_add(Point coords, std::vector<ServiceId> services) {
    return ChurnEvent{Kind::kAdd, NodeId{}, std::move(coords),
                      std::move(services)};
  }

  Kind kind = Kind::kActivate;
  NodeId node;                      ///< kActivate / kDeactivate
  Point coords;                     ///< kAdd
  std::vector<ServiceId> services;  ///< kAdd, sorted ascending
};

class DynamicHfcOverlay {
 public:
  /// The universe of potential proxies, all initially active, clustered by
  /// a fresh Zahn run. Throws on inconsistent inputs.
  DynamicHfcOverlay(PointSet coords, ServicePlacement placement,
                    ZahnParams zahn = {},
                    BorderSelection selection = BorderSelection::kClosestPair,
                    ChurnMode mode = ChurnMode::kIncremental);

  [[nodiscard]] std::size_t universe_size() const { return active_.size(); }
  [[nodiscard]] std::size_t active_count() const { return active_count_; }
  [[nodiscard]] bool is_active(NodeId node) const;
  /// Bumped on every mutation and restructure; memoization key for
  /// derived statistics of the active set.
  [[nodiscard]] std::uint64_t active_generation() const {
    return active_generation_;
  }

  /// Proxy leaves the overlay. Its cluster shrinks (and disappears when it
  /// empties). Throws if the node is not active or the last active node.
  void deactivate(NodeId node);

  /// Proxy (re)joins: it enters the cluster of its nearest active proxy,
  /// per the paper's join rule — no re-clustering. Throws if already
  /// active.
  void activate(NodeId node);

  /// Extend the universe with a brand-new proxy (returns its NodeId) and
  /// activate it by the join rule.
  NodeId add_proxy(Point coords, std::vector<ServiceId> services);

  /// Apply a batch of churn events in order. The border-pair repairs
  /// are coalesced: deferred to the end of the batch
  /// and fanned across the thread pool, one task per affected cluster
  /// pair. Callers stream large event sequences in batches. Returns the
  /// NodeIds assigned to the kAdd events, in order. If an event throws,
  /// the events before it remain applied and the repairs for them run
  /// before the exception propagates.
  std::vector<NodeId> apply(std::span<const ChurnEvent> events);

  /// Quality of the maintained clustering: mean intra-cluster pairwise
  /// distance of a fresh Zahn clustering divided by the same statistic of
  /// the maintained one. 1.0 = as tight as fresh; below 1 = decayed by
  /// churn; above 1 = churn left the maintained partition finer than a
  /// fresh clustering would be. Memoized on the active-set generation:
  /// repeated polls between mutations are O(1).
  [[nodiscard]] double clustering_quality() const;

  /// The paper's re-structuring mechanism: re-cluster the active set from
  /// scratch.
  void restructure();
  [[nodiscard]] std::size_t mutations_since_restructure() const {
    return mutations_since_restructure_;
  }

  /// Route hierarchically over the current active set. Request endpoints
  /// are universe NodeIds and must be active; the returned hops are
  /// universe NodeIds too.
  [[nodiscard]] ServicePath route(const ServiceRequest& request);

  /// Route treating proxies rejected by `up` as crashed (cannot serve or
  /// relay; border pairs fall back to the next-closest surviving pair —
  /// DESIGN.md §10). `up` takes universe NodeIds; endpoints must be
  /// active and up. Returned hops are universe NodeIds.
  [[nodiscard]] ServicePath route_degraded(const ServiceRequest& request,
                                           std::function<bool(NodeId)> up);

  /// Current number of clusters over the active set.
  [[nodiscard]] std::size_t cluster_count();

  /// --- equivalence probes (tests compare against a full rebuild) ---

  /// The active-set partition in canonical form: member lists in universe
  /// NodeIds, each ascending, lists sorted lexicographically.
  [[nodiscard]] std::vector<std::vector<NodeId>> active_partition();

  /// All border pairs in canonical form: one (min, max) universe-NodeId
  /// pair per unordered live cluster pair, sorted.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> border_pairs();

  /// --- universe-level routing state ---
  ///
  /// The serving engine (src/serve, DESIGN.md §12) snapshots these
  /// between mutation batches: ids in them ARE universe NodeIds, so
  /// frozen copies serve requests with no id remapping.
  [[nodiscard]] const OverlayNetwork& universe_network() const;
  [[nodiscard]] const HfcTopology& universe_topology() const;
  /// The universe router with SCT_C synced to the topology (same sync
  /// route() performs before answering).
  [[nodiscard]] HierarchicalServiceRouter& universe_router();
  /// The universe router as of its last sync: SCT_C entries of clusters
  /// whose generation moved since are stale (snapshot capture's source).
  [[nodiscard]] const HierarchicalServiceRouter& last_synced_router() const {
    return *inc_router_;
  }

 private:
  void do_deactivate(NodeId node);
  void do_activate(NodeId node);
  NodeId do_add(const Point& coords, std::vector<ServiceId> services);
  /// The universe coordinates: the distance tier's store, the one copy
  /// the overlay keeps besides its OverlayNetwork's.
  [[nodiscard]] const PointSet& coords() const;
  /// Active universe ids, ascending.
  [[nodiscard]] std::vector<std::size_t> active_ids() const;
  /// Rebuild the universe-level routing objects over `clustering`
  /// (restructure). Counts as a churn.full_rebuild. The topology's
  /// cluster assignment is then the one record of each node's cluster
  /// slot (invalid for inactive nodes).
  void build_universe_state(Clustering clustering);

  ServicePlacement placement_;
  std::vector<bool> active_;
  std::size_t active_count_ = 0;
  ZahnParams zahn_;
  BorderSelection selection_;
  std::size_t mutations_since_restructure_ = 0;
  std::uint64_t active_generation_ = 0;

  /// Coordinate tier over the whole universe — the store joins scan
  /// through and the universe router routes with.
  std::unique_ptr<CoordDistanceService> dist_;

  /// Spatial set over the active nodes for the nearest-active join rule
  /// (DESIGN.md §11). Rebuilt by restructure(); maintained by
  /// insert/erase at every (de)activation.
  DynamicSpatialSet active_set_;

  /// Universe-level routing state, mutated in place.
  std::unique_ptr<OverlayNetwork> inc_net_;
  std::unique_ptr<HfcTopology> inc_topo_;
  std::unique_ptr<HierarchicalServiceRouter> inc_router_;

  /// clustering_quality memo (keyed by active_generation_).
  mutable bool quality_valid_ = false;
  mutable std::uint64_t quality_gen_ = 0;
  mutable double quality_cache_ = 1.0;
};

}  // namespace hfc
