// The overlay proxy network: n proxies with network coordinates and
// statically installed services (paper §2.2 — no active services, so
// proxies differ in functional capability).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "coords/point_set.h"
#include "services/workload.h"
#include "util/ids.h"
#include "util/require.h"

namespace hfc {

/// Symmetric distance between two overlay nodes. Implementations include
/// coordinate-space estimates (what proxies actually know) and
/// ground-truth underlay delays (what experiments measure paths with).
///
/// Lifetime contract: an OverlayDistance is a *view*. Whatever state its
/// closure references — an OverlayNetwork, an HfcFramework, a distance
/// tier — must outlive every call through the function.
/// Closures that must survive their producer should capture owning
/// handles (shared_ptr) instead.
using OverlayDistance = std::function<double(NodeId, NodeId)>;

class OverlayNetwork;

/// The coordinate distance of one OverlayNetwork as a small copyable
/// functor — no std::function allocation, and (in debug builds) a
/// liveness check that turns the classic use-after-free of a closure
/// outliving its network into an immediate error instead of a read
/// through a dangling pointer. The network must still outlive the
/// functor; the assert is a diagnostic, not a lifetime extension.
class CoordDistanceRef {
 public:
  CoordDistanceRef(const OverlayNetwork* net, std::weak_ptr<const bool> alive)
      : net_(net) {
#ifndef NDEBUG
    alive_ = std::move(alive);
#else
    (void)alive;
#endif
  }

  [[nodiscard]] double operator()(NodeId a, NodeId b) const;

 private:
  const OverlayNetwork* net_;
#ifndef NDEBUG
  /// Tracks the network's liveness token; expires when it is destroyed.
  std::weak_ptr<const bool> alive_;
#endif
};

class OverlayNetwork {
 public:
  /// Throws unless coords and placement describe the same node count and
  /// all coordinates share one dimension.
  OverlayNetwork(PointSet coords, ServicePlacement placement);

  [[nodiscard]] std::size_t size() const { return coords_.size(); }

  /// Append one proxy (dynamic membership, DESIGN.md §9). Returns its
  /// NodeId. `coords` must match the network's dimension and `services`
  /// must be sorted. Outstanding CoordDistanceRef functors stay valid.
  NodeId add_node(Point coords, std::vector<ServiceId> services);

  [[nodiscard]] std::span<const double> coordinate(NodeId node) const;
  [[nodiscard]] const std::vector<ServiceId>& services_at(NodeId node) const;
  [[nodiscard]] bool hosts(NodeId node, ServiceId service) const;

  /// Sorted, duplicate-free union of the services hosted by `members`:
  /// the aggregate capability (SCT_C) of a cluster or group (paper §4,
  /// footnote 5).
  [[nodiscard]] std::vector<ServiceId> aggregate_services(
      const std::vector<NodeId>& members) const;

  /// All proxies hosting `service` (possibly empty), ascending.
  [[nodiscard]] std::vector<NodeId> hosts_of(ServiceId service) const;

  /// Coordinate-space (estimated) distance between two proxies.
  [[nodiscard]] double coord_distance(NodeId a, NodeId b) const;

  /// The coordinate distance as a copyable functor (convertible to
  /// OverlayDistance wherever one is expected). The functor references
  /// this network; keep the network alive while using it — debug builds
  /// assert on calls after the network is destroyed.
  [[nodiscard]] CoordDistanceRef coord_distance_fn() const;

  [[nodiscard]] std::vector<NodeId> all_nodes() const;

 private:
  PointSet coords_;
  ServicePlacement placement_;
  /// hosts_index_[s] = proxies hosting service s (for services < catalog
  /// bound seen in the placement).
  std::vector<std::vector<NodeId>> hosts_index_;
  /// Liveness token observed by CoordDistanceRef's debug assert: the
  /// weak_ptrs handed out expire exactly when this network is destroyed.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

inline double CoordDistanceRef::operator()(NodeId a, NodeId b) const {
#ifndef NDEBUG
  ensure(!alive_.expired(),
         "CoordDistanceRef: the OverlayNetwork this functor references has "
         "been destroyed");
#endif
  return net_->coord_distance(a, b);
}

}  // namespace hfc
