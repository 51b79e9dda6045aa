// Full-rebuild churn oracle: routing state built from scratch over a
// DynamicHfcOverlay's current active set.
//
// The overlay's dense inspection view (`view_network`, `view_topology`)
// is a fresh OverlayNetwork + closest-pair HfcTopology over the active
// nodes in ascending universe order, clustered by the maintained labels.
// This oracle adds a fresh CoordDistanceService and
// HierarchicalServiceRouter over that view and maps dense ids back to
// universe ids in the same ascending-active order, so its answers are
// what a from-scratch rebuild after every mutation would give. The
// incremental churn engine must agree with it: same partition, same
// border pairs, same routes.
//
// The view belongs to the overlay and is replaced on its next mutation:
// build an oracle after mutating, and drop it before mutating again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "distance/coord_distance.h"
#include "dynamic/dynamic_overlay.h"
#include "routing/hierarchical_router.h"

namespace hfc::oracle {

class FullRebuild {
 public:
  explicit FullRebuild(DynamicHfcOverlay& overlay)
      : net_(overlay.view_network()),
        topo_(overlay.view_topology()),
        dist_(view_coords(net_)),
        router_(net_, topo_, dist_),
        universe_to_dense_(overlay.universe_size(), -1) {
    for (std::size_t v = 0; v < overlay.universe_size(); ++v) {
      const NodeId node(static_cast<std::int32_t>(v));
      if (!overlay.is_active(node)) continue;
      universe_to_dense_[v] =
          static_cast<std::int32_t>(dense_to_universe_.size());
      dense_to_universe_.push_back(node);
    }
  }

  FullRebuild(const FullRebuild&) = delete;
  FullRebuild& operator=(const FullRebuild&) = delete;

  [[nodiscard]] std::size_t cluster_count() const {
    return topo_.cluster_count();
  }

  /// Same canonical form as DynamicHfcOverlay::active_partition.
  [[nodiscard]] std::vector<std::vector<NodeId>> active_partition() const {
    std::vector<std::vector<NodeId>> out;
    for (std::size_t c = 0; c < topo_.cluster_count(); ++c) {
      std::vector<NodeId> members;
      for (const NodeId dense :
           topo_.members(ClusterId(static_cast<std::int32_t>(c)))) {
        members.push_back(universe(dense));
      }
      std::sort(members.begin(), members.end());
      out.push_back(std::move(members));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Same canonical form as DynamicHfcOverlay::border_pairs.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> border_pairs() const {
    std::vector<std::pair<NodeId, NodeId>> out;
    const std::size_t count = topo_.cluster_count();
    for (std::size_t a = 0; a < count; ++a) {
      const ClusterId ca(static_cast<std::int32_t>(a));
      for (std::size_t b = a + 1; b < count; ++b) {
        const ClusterId cb(static_cast<std::int32_t>(b));
        const NodeId u = universe(topo_.border(ca, cb));
        const NodeId v = universe(topo_.border(cb, ca));
        out.push_back(u < v ? std::make_pair(u, v) : std::make_pair(v, u));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Route over the rebuilt state; endpoints and hops are universe ids.
  [[nodiscard]] ServicePath route(const ServiceRequest& request) const {
    ServicePath path = router_.route(to_dense(request));
    to_universe(path);
    return path;
  }

  /// Degraded routing; `up` takes universe ids.
  [[nodiscard]] ServicePath route_degraded(
      const ServiceRequest& request, std::function<bool(NodeId)> up) const {
    auto dense_up = [this, up = std::move(up)](NodeId dense) {
      return up(universe(dense));
    };
    ServicePath path =
        router_.route_degraded(to_dense(request), std::move(dense_up)).path;
    to_universe(path);
    return path;
  }

 private:
  static std::vector<Point> view_coords(const OverlayNetwork& net) {
    std::vector<Point> coords;
    coords.reserve(net.size());
    for (std::size_t d = 0; d < net.size(); ++d) {
      coords.push_back(net.coordinate(NodeId(static_cast<std::int32_t>(d))));
    }
    return coords;
  }

  [[nodiscard]] NodeId universe(NodeId dense) const {
    return dense_to_universe_[dense.idx()];
  }

  [[nodiscard]] ServiceRequest to_dense(ServiceRequest request) const {
    request.source = NodeId(universe_to_dense_[request.source.idx()]);
    request.destination = NodeId(universe_to_dense_[request.destination.idx()]);
    return request;
  }

  void to_universe(ServicePath& path) const {
    for (ServiceHop& hop : path.hops) hop.proxy = universe(hop.proxy);
  }

  const OverlayNetwork& net_;
  const HfcTopology& topo_;
  CoordDistanceService dist_;
  HierarchicalServiceRouter router_;
  std::vector<NodeId> dense_to_universe_;
  std::vector<std::int32_t> universe_to_dense_;
};

}  // namespace hfc::oracle
