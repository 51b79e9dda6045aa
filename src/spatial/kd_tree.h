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
// `fold_updates` (DESIGN.md §13) merges a mutation batch without a full
// rebuild: removed ids are located in one scan, added points are routed
// down the existing split planes, and an emit pass copies the tree into
// fresh arrays — untouched subtrees verbatim, touched subtrees kept when
// the change count stays within a scapegoat budget (max(16, size/4)) and
// rebuilt from their surviving points otherwise. Kept nodes keep their
// split planes and take the union of their children's boxes, so boxes
// always *contain* their subtree's points; containment (not tightness)
// is all the search correctness argument above needs — a loose box only
// costs pruning efficiency until a later rebuild tightens it.
#pragma once

#include <cstdint>
#include <vector>

#include "spatial/spatial_index.h"

namespace hfc {

/// An index over a subset of a coordinate array. The coordinate vector
/// must outlive the tree; point ids are indices into it (the subset form
/// indexes only the listed ids, so cluster-scoped indexes and
/// whole-overlay indexes share one implementation).
class KdTree {
 public:
  /// Index the points `ids` (empty = all) of `coords`. Throws on empty
  /// input or inconsistent dimensions.
  explicit KdTree(const std::vector<Point>& coords,
                  std::vector<std::int32_t> ids = {});

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  /// Nearest indexed point to `q` with distance <= `bound` (candidates
  /// strictly beyond the bound may be pruned; candidates at exactly the
  /// bound are still returned so callers can finish lexicographic
  /// tie-breaks). `accept`/`ctx` optionally reject candidate ids.
  [[nodiscard]] SpatialHit nearest(const Point& q, double bound,
                                   QueryStats& stats,
                                   SpatialFilter accept = nullptr,
                                   const void* ctx = nullptr) const;

  /// The k indexed points minimising (distance, id) lexicographically,
  /// ascending — exactly the prefix a partial_sort of (distance, id)
  /// pairs produces. Fewer than k are returned when the (filtered) index
  /// is smaller.
  [[nodiscard]] std::vector<SpatialHit> k_nearest(
      const Point& q, std::size_t k, QueryStats& stats,
      SpatialFilter accept = nullptr, const void* ctx = nullptr) const;

  /// All indexed ids within `radius` of `q` (inclusive), ascending by id.
  [[nodiscard]] std::vector<std::int32_t> range(const Point& q, double radius,
                                                QueryStats& stats) const;

  /// Assign a component label to every *indexed* point (labels is indexed
  /// by point id) and cache per-subtree homogeneity tags, so
  /// `nearest_foreign` can prune subtrees entirely inside the query's own
  /// component — the Borůvka MST accelerator. Not thread-safe with
  /// concurrent queries.
  void retag(const std::vector<std::int32_t>& labels);

  /// Nearest indexed point whose label (from the last `retag`) differs
  /// from `label`, with the same bound/tie contract as `nearest`.
  [[nodiscard]] SpatialHit nearest_foreign(const Point& q, std::int32_t label,
                                           double bound,
                                           QueryStats& stats) const;

  /// Fold a batch of mutations into the tree in place (see the header
  /// comment): `adds` become indexed points, `removes` (which must all be
  /// indexed) stop existing, and at least one point must remain. The tree
  /// then answers queries over exactly (indexed − removes) ∪ adds with the
  /// same exactness contract as a fresh build; any `retag` state is
  /// discarded and must be re-established before the next
  /// `nearest_foreign`. Not thread-safe with concurrent queries.
  void fold_updates(const std::vector<std::int32_t>& adds,
                    const std::vector<std::int32_t>& removes);

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

  [[nodiscard]] const Point& point(std::uint32_t pos) const {
    return (*coords_)[static_cast<std::size_t>(ids_[pos])];
  }
  /// Build a subtree over ids[begin, end) into the given arrays (which
  /// may be the members or the fold-emit scratch); returns the new node
  /// index. Only coords_/dim_ of *this are read.
  [[nodiscard]] std::int32_t build_range(std::vector<std::int32_t>& ids,
                                         std::vector<Node>& nodes,
                                         std::vector<double>& boxes,
                                         std::uint32_t begin,
                                         std::uint32_t end) const;
  /// fold_updates emit pass (see the header comment). `dead_prefix` is
  /// the prefix-count of tombstoned positions, `add_count`/`leaf_adds`
  /// the per-node routing of added ids.
  struct FoldScratch {
    const std::vector<std::uint32_t>* dead_prefix;
    const std::vector<std::uint32_t>* add_count;
    const std::vector<std::vector<std::int32_t>>* leaf_adds;
    std::vector<std::int32_t> ids;
    std::vector<Node> nodes;
    std::vector<double> boxes;
    std::uint64_t points_rebuilt = 0;
  };
  [[nodiscard]] std::int32_t fold_emit(std::int32_t old_node,
                                       FoldScratch& s) const;
  /// Copy an untouched subtree verbatim, shifting id positions by the
  /// subtree's new location.
  [[nodiscard]] std::int32_t fold_copy(std::int32_t old_node,
                                       std::int64_t pos_delta,
                                       FoldScratch& s) const;
  /// Append the ids of every add routed into `old_node`'s subtree.
  void gather_adds(std::int32_t old_node, FoldScratch& s,
                   std::vector<std::int32_t>& out) const;
  /// Exact distance from q to node's bounding box (0 when inside).
  [[nodiscard]] double box_distance(std::int32_t node, const Point& q) const;
  void search(std::int32_t node, const Point& q, std::int32_t foreign_label,
              SpatialFilter accept, const void* ctx, SpatialHit& best,
              QueryStats& stats) const;
  [[nodiscard]] std::int32_t retag_node(
      std::int32_t node, const std::vector<std::int32_t>& labels);

  const std::vector<Point>* coords_;
  std::size_t dim_ = 0;
  std::vector<std::int32_t> ids_;    ///< permuted by the build
  std::vector<Node> nodes_;
  std::vector<double> boxes_;        ///< per node: dim_ lows, dim_ highs
  std::int32_t root_ = -1;
  std::vector<std::int32_t> point_tag_;  ///< aligned with ids_
  std::vector<std::int32_t> node_tag_;   ///< label or kMixedTag
};

}  // namespace hfc
