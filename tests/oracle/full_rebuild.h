// Full-rebuild churn oracle: routing state built from scratch over a
// DynamicHfcOverlay's current active set.
//
// The oracle densifies the active set, read through the overlay's public
// universe accessors: dense index d is the d-th active node in ascending
// universe order, and the maintained cluster labels (the universe
// topology's slot ids) compact to dense cluster ids by ascending label
// value. Over that view it builds a fresh CoordDistanceService,
// OverlayNetwork, closest-pair HfcTopology and HierarchicalServiceRouter,
// and maps dense ids back to universe ids, so its answers are what a
// from-scratch rebuild after every mutation would give. The topology is
// built through the OverlayDistance constructor, so its border pairs come
// from the all-pairs scan, never from the spatial index the overlay
// repairs with. The incremental churn engine must agree with it: same
// partition, same border pairs, same routes.
//
// The ascending compaction keeps the dense cluster ids in the relative
// order of the universe topology's live slots; with the router's
// canonical state-key tie-breaking, a router over the view resolves
// exact-cost CSP ties to the same route as the universe router
// (DESIGN.md §9 (b)).
//
// The oracle is a standalone copy: it stays valid, and stale, after the
// overlay mutates again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "distance/coord_distance.h"
#include "dynamic/dynamic_overlay.h"
#include "overlay/hfc_topology.h"
#include "overlay/overlay_network.h"
#include "routing/hierarchical_router.h"

namespace hfc::oracle {

class FullRebuild {
 public:
  explicit FullRebuild(const DynamicHfcOverlay& overlay)
      : dense_to_universe_(active_nodes(overlay)),
        universe_to_dense_(overlay.universe_size(), -1),
        dist_(view_coords(overlay, dense_to_universe_)),
        net_(dist_.coords(), view_placement(overlay, dense_to_universe_)),
        topo_(view_clustering(overlay, dense_to_universe_), dist_.fn()),
        router_(net_, topo_, dist_) {
    for (std::size_t d = 0; d < dense_to_universe_.size(); ++d) {
      universe_to_dense_[dense_to_universe_[d].idx()] =
          static_cast<std::int32_t>(d);
    }
  }

  FullRebuild(const FullRebuild&) = delete;
  FullRebuild& operator=(const FullRebuild&) = delete;

  /// The dense view; ids in it are dense indices, not universe ids.
  [[nodiscard]] const OverlayNetwork& network() const { return net_; }
  [[nodiscard]] const HfcTopology& topology() const { return topo_; }

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
  static std::vector<NodeId> active_nodes(const DynamicHfcOverlay& overlay) {
    std::vector<NodeId> nodes;
    for (std::size_t v = 0; v < overlay.universe_size(); ++v) {
      const NodeId node(static_cast<std::int32_t>(v));
      if (overlay.is_active(node)) nodes.push_back(node);
    }
    return nodes;
  }

  static PointSet view_coords(const DynamicHfcOverlay& overlay,
                              const std::vector<NodeId>& nodes) {
    PointSet coords;
    for (const NodeId node : nodes) {
      const auto row = overlay.universe_network().coordinate(node);
      coords.push_back(Point(row.begin(), row.end()));
    }
    return coords;
  }

  static ServicePlacement view_placement(const DynamicHfcOverlay& overlay,
                                         const std::vector<NodeId>& nodes) {
    ServicePlacement placement;
    placement.reserve(nodes.size());
    for (const NodeId node : nodes) {
      const auto services = overlay.universe_network().services_at(node);
      placement.emplace_back(services.begin(), services.end());
    }
    return placement;
  }

  /// Universe cluster slots compacted by ascending label value (slots
  /// have holes once leaves empty a cluster).
  static Clustering view_clustering(const DynamicHfcOverlay& overlay,
                                    const std::vector<NodeId>& nodes) {
    const HfcTopology& topo = overlay.universe_topology();
    std::vector<ClusterId> labels;
    labels.reserve(nodes.size());
    for (const NodeId node : nodes) labels.push_back(topo.cluster_of(node));
    std::vector<ClusterId> distinct = labels;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    Clustering clustering;
    clustering.assignment.resize(nodes.size());
    clustering.members.resize(distinct.size());
    for (std::size_t d = 0; d < nodes.size(); ++d) {
      const ClusterId dense(static_cast<std::int32_t>(
          std::lower_bound(distinct.begin(), distinct.end(), labels[d]) -
          distinct.begin()));
      clustering.assignment[d] = dense;
      clustering.members[dense.idx()].emplace_back(
          static_cast<std::int32_t>(d));
    }
    return clustering;
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

  std::vector<NodeId> dense_to_universe_;
  std::vector<std::int32_t> universe_to_dense_;
  CoordDistanceService dist_;
  OverlayNetwork net_;
  HfcTopology topo_;
  HierarchicalServiceRouter router_;
};

}  // namespace hfc::oracle
