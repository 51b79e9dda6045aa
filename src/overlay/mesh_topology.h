// The single-level mesh baseline (paper §6.2): "each proxy creates links
// to its 1-4 nearest neighbors, and 1-2 randomly chosen, farther located
// neighbors (to make the topology connected)". Every node keeps global
// state; service paths must follow mesh edges, so non-adjacent services
// need relay proxies in between.
//
// The mesh is built by one scan of the distance functor: each node ranks
// every other node (O(n^2) evaluations, counted in mesh.candidate_links),
// which is affordable at the baseline sizes the path-efficiency
// comparison (Fig. 10) measures. It takes no spatial index.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "distance/row_cache.h"
#include "overlay/overlay_network.h"
#include "util/ids.h"
#include "util/rng.h"

namespace hfc {

struct MeshParams {
  std::size_t nearest_min = 1;
  std::size_t nearest_max = 4;
  std::size_t random_min = 1;
  std::size_t random_max = 2;
};

/// Routing state over the mesh, derived lazily: one Dijkstra per *touched*
/// source, memoized in a bounded LRU of source trees instead of the dense
/// distance + predecessor matrices this used to hold (O(cache_rows * n)
/// resident instead of O(n^2)).
///
/// Query orientation matches the old packed matrix: `distance(a, b)` reads
/// the tree of the higher-indexed endpoint, so values are bit-equal to the
/// eager all-pairs computation. `walk` runs on the actual source's tree.
/// The edge-weight functor is kept by value; whatever it references must
/// outlive this object.
class MeshRouting {
 public:
  /// `cache_rows` = 0 keeps all n sources resident (the dense-equivalent
  /// working set).
  MeshRouting(std::vector<std::vector<NodeId>> adjacency,
              OverlayDistance edge_distance, std::size_t cache_rows = 0);

  [[nodiscard]] std::size_t size() const { return adjacency_.size(); }

  /// Shortest mesh-walk distance between two nodes (infinity if
  /// unreachable).
  [[nodiscard]] double distance(NodeId src, NodeId dst) const;

  /// Node sequence src..dst along the shortest mesh walk (empty if
  /// unreachable; [src] if src == dst).
  [[nodiscard]] std::vector<NodeId> walk(NodeId src, NodeId dst) const;

  /// Bytes of routing state currently resident (cached source trees).
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  /// Shortest-path tree from one source over the mesh edges.
  struct SourceTree {
    std::vector<double> dist;
    std::vector<NodeId> pred;
  };
  [[nodiscard]] std::shared_ptr<const SourceTree> tree(std::size_t src) const;

  std::vector<std::vector<NodeId>> adjacency_;
  OverlayDistance edge_distance_;
  /// unique_ptr so MeshRouting stays movable (the cache holds mutexes).
  std::unique_ptr<RowCache<SourceTree>> cache_;
};

class MeshTopology {
 public:
  /// Build the mesh per the paper's rule under `distance`. If the union of
  /// per-node links leaves the graph disconnected, closest cross-component
  /// pairs are linked until it is (the paper's random far links serve the
  /// same purpose). Throws for n == 0.
  MeshTopology(std::size_t n, const OverlayDistance& distance,
               const MeshParams& params, Rng& rng);

  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId node) const;
  [[nodiscard]] bool has_edge(NodeId a, NodeId b) const;
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  [[nodiscard]] bool connected() const;

  /// Lazy routing state with edge weights drawn from `distance` (normally
  /// the same estimate the mesh was built with). The functor is kept by
  /// value inside the returned object — see MeshRouting's lifetime note.
  [[nodiscard]] MeshRouting compute_routing(const OverlayDistance& distance,
                                            std::size_t cache_rows = 0) const;

 private:
  void add_edge(NodeId a, NodeId b);

  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace hfc
