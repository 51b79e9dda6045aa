// RouteSnapshot — the immutable unit of the serving engine (DESIGN.md §12).
//
// The routers answer requests against live mutable state (topology
// membership, border tables, SCT_C), which forces request threads to
// synchronize with churn maintenance. A RouteSnapshot freezes everything
// a route computation reads — the overlay placement and coordinates, a
// clone of the HFC topology (borders, liveness, generation stamps), a
// router with that membership's SCT_P and SCT_C, and the crash state —
// into one immutable object published RCU-style by the ServingEngine
// (shared_ptr swap under a mutex). Reader threads route against whatever
// snapshot they loaded with no locks and no risk of a torn topology; the
// publisher captures a fresh snapshot whenever
// `HfcTopology::structure_generation()` advances or the crash set
// changes.
//
// Capture pays for what changed. The network only grows by appending and
// restructure() keeps it, so a snapshot shares its predecessor's network
// while the size holds. SCT_P and SCT_C are cloned from the overlay's
// router, re-deriving only clusters whose generation moved. The
// frozen topology measures through the snapshot's network
// (`OverlayNetwork::coord_distance_fn()`) and the router reads that
// network's coordinate rows in place (`OverlayNetwork::coords()`): both
// are the same `euclidean()` over the same coordinates as the live
// coordinate tier, so routes stay bit-identical. The snapshot owns that
// network, so the rows outlive its router.
//
// Degradation baking: when the snapshot carries crashed nodes, border
// pairs whose stored end is down are resolved to the surviving pair
// through the live-link view (routing/live_links.h) ONCE at capture and
// written into the frozen border table, pairs with no surviving member
// as disconnected. A degraded request reads that table in place, as a
// healthy one does, with the crash set as a node filter. Routes served
// from a snapshot are byte-identical to what the live router returns for
// the same membership and crash set.
//
// Cache invalidation inputs: the snapshot precomputes, per service, a
// fingerprint over the (hosting cluster, host set, border epoch) chain.
// A cached route is exact iff its endpoint clusters' generations, its
// traversed clusters' generations, every fingerprint of a service its SG
// mentions, and the crash epoch all still match — see RouteCache.
// Keying the per-service chain on host sets (which member ids host the
// service) plus border epochs, instead of whole-cluster generations,
// means churn among a hosting cluster's *non-host* members no longer
// perturbs the fingerprint: only the cluster_tags of routes that
// actually traverse the churned cluster go stale.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dynamic/dynamic_overlay.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/hierarchical_router.h"
#include "routing/service_path.h"
#include "services/service_graph.h"
#include "util/ids.h"

namespace hfc::serve {

class RouteSnapshot {
 public:
  /// Freeze `overlay`'s universe-level routing state. `crashed` (any
  /// order, duplicates tolerated) are the down proxies baked into the
  /// view; `crash_epoch` is the publisher's monotone stamp for the crash
  /// set (entries cached under another epoch are invalid). `previous`,
  /// the same overlay's last snapshot (null for the first), lends its
  /// network while the live one has not grown. The snapshot has no
  /// lifetime ties to the overlay afterwards.
  [[nodiscard]] static std::shared_ptr<const RouteSnapshot> capture(
      const DynamicHfcOverlay& overlay, std::vector<NodeId> crashed,
      std::uint64_t crash_epoch, const RouteSnapshot* previous = nullptr);

  RouteSnapshot(const RouteSnapshot&) = delete;
  RouteSnapshot& operator=(const RouteSnapshot&) = delete;

  /// Topology-wide generation this snapshot froze at.
  [[nodiscard]] std::uint64_t structure_generation() const {
    return topo_->structure_generation();
  }
  [[nodiscard]] std::uint64_t crash_epoch() const { return crash_epoch_; }
  /// Crashed proxies, sorted ascending, deduplicated.
  [[nodiscard]] const std::vector<NodeId>& crashed() const { return crashed_; }
  [[nodiscard]] bool up(NodeId node) const {
    return node.valid() && node.idx() < up_.size() && up_[node.idx()] != 0;
  }

  [[nodiscard]] std::size_t node_count() const { return net_->size(); }
  [[nodiscard]] ClusterId cluster_of(NodeId node) const {
    return topo_->cluster_of(node);
  }
  /// Generation stamp of one cluster slot at capture time.
  [[nodiscard]] std::uint64_t cluster_generation(ClusterId cluster) const {
    return topo_->generation(cluster);
  }
  /// True when `cluster` exists in this snapshot with exactly `gen`.
  [[nodiscard]] bool cluster_generation_is(ClusterId cluster,
                                           std::uint64_t gen) const {
    return cluster.valid() && cluster.idx() < topo_->cluster_count() &&
           topo_->generation(cluster) == gen;
  }

  /// Fingerprint of `service`'s candidate set: a splitmix64 chain over
  /// the ascending (hosting cluster, host-set hash, border epoch)
  /// triples, seeded by the service id. Equal fingerprints imply the
  /// service's CSP candidate clusters, the exact hosts each offers, and
  /// each candidate's border configuration are unchanged — non-host
  /// membership churn inside a hosting cluster does not alter the chain.
  /// Services no cluster hosts (including ids beyond the snapshot's
  /// catalog) fingerprint to the seeded empty chain, so "still unhosted"
  /// also matches exactly.
  [[nodiscard]] std::uint64_t service_fingerprint(ServiceId service) const;

  /// Route against the frozen view: the plain hierarchical pipeline when
  /// the snapshot has no crashes; when it does, the same pipeline over the
  /// baked border table with crankback around the crashed proxies (a
  /// fault.degraded_requests each). Thread-safe: concurrent callers share
  /// only immutable state. Endpoints must be clustered in this snapshot
  /// (and up, when crashed).
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const;

  /// The frozen sub-objects, for tests and introspection.
  [[nodiscard]] const HfcTopology& topology() const { return *topo_; }
  [[nodiscard]] const OverlayNetwork& network() const { return *net_; }
  [[nodiscard]] const HierarchicalServiceRouter& router() const {
    return *router_;
  }

 private:
  RouteSnapshot() = default;

  std::vector<NodeId> crashed_;
  std::uint64_t crash_epoch_ = 0;
  std::vector<char> up_;  ///< up_[node] = 1 unless crashed
  RoutingFilters survivors_;  ///< node_ok = up_, when crashed

  /// Ownership order matters: net_ outlives topo_ (whose distance
  /// functor reads net_), which outlives router_. Shared between
  /// snapshots of one network size.
  std::shared_ptr<const OverlayNetwork> net_;
  std::unique_ptr<HfcTopology> topo_;
  std::unique_ptr<HierarchicalServiceRouter> router_;

  /// fingerprints_[s] for services inside the capture-time catalog;
  /// out-of-range services derive the empty chain on demand.
  std::vector<std::uint64_t> fingerprints_;
};

}  // namespace hfc::serve
