// Bucketed k-d tree over runtime-dimension points (DESIGN.md §11).
//
// Build: recursive median split (nth_element under the total order
// (coordinate, id), so the partition — and therefore the whole tree
// shape — is deterministic even with duplicate coordinates) on the
// widest axis of each node's bounding box, into leaves of <= 16 points.
//
// Search correctness rests on exact bounding boxes, not on split planes:
// a subtree is pruned only when its box distance — accumulated in the
// same axis order and with the same operations as `euclidean()`, so the
// computed bound never exceeds the computed distance of any contained
// point — is strictly greater than the current best distance. Boxes at
// exactly the best distance are still visited, which is what preserves
// the smallest-id tie-break.
//
// The tree is immutable once built: churn-capable callers
// (DynamicSpatialSet) buffer mutations beside it and replace it with a
// fresh build once the buffers exceed their budget (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coords/point_set.h"
#include "spatial/spatial_index.h"

namespace hfc {

/// An index over a subset of a coordinate store. The PointSet must
/// outlive the tree (a temporary is rejected at compile time); point ids
/// are row indices into it, read through it on every access (the subset
/// form indexes only the listed ids, so cluster-scoped indexes and
/// whole-overlay indexes share one implementation).
class KdTree {
 public:
  /// Index the points `ids` (empty = all) of `coords`. Throws on empty
  /// input, zero-dimensional points or out-of-range ids.
  explicit KdTree(const PointSet& coords, std::vector<std::int32_t> ids = {});
  KdTree(PointSet&&, std::vector<std::int32_t> = {}) = delete;

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// Nearest indexed point to `q` with distance <= `bound` (candidates
  /// strictly beyond the bound may be pruned; candidates at exactly the
  /// bound are still returned so callers can finish lexicographic
  /// tie-breaks). `accept`/`ctx` optionally reject candidate ids.
  [[nodiscard]] SpatialHit nearest(std::span<const double> q, double bound,
                                   QueryStats& stats,
                                   SpatialFilter accept = nullptr,
                                   const void* ctx = nullptr) const;

  /// Assign a component label to every *indexed* point (labels is indexed
  /// by point id) and cache per-subtree homogeneity tags, so
  /// `nearest_foreign` can prune subtrees entirely inside the query's own
  /// component — the Borůvka MST accelerator. Not thread-safe with
  /// concurrent queries.
  void retag(const std::vector<std::int32_t>& labels);

  /// Nearest indexed point whose label (from the last `retag`) differs
  /// from `label`, with the same bound/tie contract as `nearest`.
  [[nodiscard]] SpatialHit nearest_foreign(std::span<const double> q,
                                           std::int32_t label, double bound,
                                           QueryStats& stats) const;

  /// Bytes of index state currently resident (the bench memory-ceiling
  /// assertions bound this alongside the coordinate tier).
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  static constexpr std::uint32_t kLeafSize = 16;
  /// node_tag_ value for subtrees spanning more than one component.
  static constexpr std::int32_t kMixedTag = -2;
  /// `label` sentinel for searches without component filtering.
  static constexpr std::int32_t kAnyLabel = INT32_MIN;

  struct Node {
    std::uint32_t begin = 0;  ///< range into ids_ (subtree points)
    std::uint32_t end = 0;
    std::int32_t left = -1;   ///< children; -1 for leaves
    std::int32_t right = -1;
    std::int32_t axis = -1;   ///< traversal-order hint; -1 for leaves
    double split = 0.0;
  };

  [[nodiscard]] std::span<const double> point(std::uint32_t pos) const {
    return coords_->row(static_cast<std::size_t>(ids_[pos]));
  }
  /// Build a subtree over ids_[begin, end); returns the new node index.
  [[nodiscard]] std::int32_t build_range(std::uint32_t begin,
                                         std::uint32_t end);
  /// Exact distance from q to node's bounding box (0 when inside).
  [[nodiscard]] double box_distance(std::int32_t node,
                                    std::span<const double> q) const;
  void search(std::int32_t node, std::span<const double> q,
              std::int32_t foreign_label, SpatialFilter accept,
              const void* ctx, SpatialHit& best, QueryStats& stats) const;
  [[nodiscard]] std::int32_t retag_node(
      std::int32_t node, const std::vector<std::int32_t>& labels);

  const PointSet* coords_;
  std::size_t dim_ = 0;
  std::vector<std::int32_t> ids_;    ///< permuted by the build
  std::vector<Node> nodes_;
  std::vector<double> boxes_;        ///< per node: dim_ lows, dim_ highs
  std::int32_t root_ = -1;
  std::vector<std::int32_t> point_tag_;  ///< aligned with ids_
  std::vector<std::int32_t> node_tag_;   ///< label or kMixedTag
};

}  // namespace hfc
