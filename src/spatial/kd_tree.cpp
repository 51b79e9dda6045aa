#include "spatial/kd_tree.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace hfc {

KdTree::KdTree(const PointSet& coords, std::vector<std::int32_t> ids)
    : coords_(&coords), dim_(coords.dim()), ids_(std::move(ids)) {
  require(!coords.empty(), "KdTree: empty coordinate set");
  require(dim_ >= 1, "KdTree: zero-dimensional points");
  if (ids_.empty()) {
    ids_.reserve(coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i) {
      ids_.push_back(static_cast<std::int32_t>(i));
    }
  }
  for (const std::int32_t id : ids_) {
    require(id >= 0 && static_cast<std::size_t>(id) < coords.size(),
            "KdTree: bad point id");
  }
  require(!ids_.empty(), "KdTree: empty id subset");
  nodes_.reserve(2 * ids_.size() / kLeafSize + 2);
  root_ = build_range(0, static_cast<std::uint32_t>(ids_.size()));
}

std::int32_t KdTree::build_range(std::uint32_t begin, std::uint32_t end) {
  const std::int32_t me = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{begin, end, -1, -1, -1, 0.0});
  boxes_.resize(boxes_.size() + 2 * dim_);
  // Exact bounding box of the subtree's points.
  const std::size_t box = static_cast<std::size_t>(me) * 2 * dim_;
  for (std::size_t d = 0; d < dim_; ++d) {
    boxes_[box + d] = point(begin)[d];
    boxes_[box + dim_ + d] = point(begin)[d];
  }
  for (std::uint32_t p = begin + 1; p < end; ++p) {
    for (std::size_t d = 0; d < dim_; ++d) {
      boxes_[box + d] = std::min(boxes_[box + d], point(p)[d]);
      boxes_[box + dim_ + d] = std::max(boxes_[box + dim_ + d], point(p)[d]);
    }
  }
  if (end - begin <= kLeafSize) return me;

  // Split on the widest axis at the (coordinate, id)-median; the id
  // tie-break makes nth_element's two sides deterministic sets and
  // guarantees progress even when every coordinate is identical.
  std::size_t axis = 0;
  double widest = boxes_[box + dim_] - boxes_[box];
  for (std::size_t d = 1; d < dim_; ++d) {
    const double extent = boxes_[box + dim_ + d] - boxes_[box + d];
    if (extent > widest) {
      widest = extent;
      axis = d;
    }
  }
  const std::uint32_t mid = begin + (end - begin) / 2;
  const auto cmp = [this, axis](std::int32_t a, std::int32_t b) {
    const double va = (*coords_)[static_cast<std::size_t>(a)][axis];
    const double vb = (*coords_)[static_cast<std::size_t>(b)][axis];
    if (va != vb) return va < vb;
    return a < b;
  };
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                   ids_.begin() + end, cmp);
  nodes_[static_cast<std::size_t>(me)].axis = static_cast<std::int32_t>(axis);
  nodes_[static_cast<std::size_t>(me)].split = point(mid)[axis];
  const std::int32_t left = build_range(begin, mid);
  const std::int32_t right = build_range(mid, end);
  nodes_[static_cast<std::size_t>(me)].left = left;
  nodes_[static_cast<std::size_t>(me)].right = right;
  return me;
}

double KdTree::box_distance(std::int32_t node,
                            std::span<const double> q) const {
  const std::size_t box = static_cast<std::size_t>(node) * 2 * dim_;
  return hfc::box_distance(&boxes_[box], &boxes_[box + dim_], q);
}

void KdTree::search(std::int32_t node, std::span<const double> q,
                    std::int32_t foreign_label, SpatialFilter accept,
                    const void* ctx, SpatialHit& best,
                    QueryStats& stats) const {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (foreign_label != kAnyLabel &&
      node_tag_[static_cast<std::size_t>(node)] == foreign_label) {
    return;  // whole subtree inside the query's own component
  }
  ++stats.nodes_visited;
  if (box_distance(node, q) > best.dist) return;
  if (n.axis < 0) {
    for (std::uint32_t p = n.begin; p < n.end; ++p) {
      const std::int32_t id = ids_[p];
      if (foreign_label != kAnyLabel && point_tag_[p] == foreign_label) {
        continue;
      }
      if (accept != nullptr && !accept(id, ctx)) continue;
      ++stats.point_evals;
      const double d = euclidean(q, point(p));
      if (d < best.dist || (d == best.dist && id < best.id)) {
        best.dist = d;
        best.id = id;
      }
    }
    return;
  }
  // Nearer half first (by split plane); the box test above re-checks the
  // far half against the possibly improved bound.
  const bool left_first = q[static_cast<std::size_t>(n.axis)] <= n.split;
  search(left_first ? n.left : n.right, q, foreign_label, accept, ctx, best,
         stats);
  search(left_first ? n.right : n.left, q, foreign_label, accept, ctx, best,
         stats);
}

SpatialHit KdTree::nearest(std::span<const double> q, double bound,
                           QueryStats& stats, SpatialFilter accept,
                           const void* ctx) const {
  require(q.size() == dim_, "KdTree::nearest: dimension mismatch");
  SpatialHit best;
  best.dist = bound;
  best.id = std::numeric_limits<std::int32_t>::max();  // any real id wins ties
  search(root_, q, kAnyLabel, accept, ctx, best, stats);
  if (best.id == std::numeric_limits<std::int32_t>::max()) return SpatialHit{};
  return best;
}

SpatialHit KdTree::nearest_foreign(std::span<const double> q,
                                   std::int32_t label, double bound,
                                   QueryStats& stats) const {
  require(q.size() == dim_, "KdTree::nearest_foreign: dimension mismatch");
  require(node_tag_.size() == nodes_.size(),
          "KdTree::nearest_foreign: retag() has not been called");
  SpatialHit best;
  best.dist = bound;
  best.id = std::numeric_limits<std::int32_t>::max();
  search(root_, q, label, nullptr, nullptr, best, stats);
  if (best.id == std::numeric_limits<std::int32_t>::max()) return SpatialHit{};
  return best;
}

void KdTree::retag(const std::vector<std::int32_t>& labels) {
  point_tag_.resize(ids_.size());
  for (std::size_t p = 0; p < ids_.size(); ++p) {
    require(static_cast<std::size_t>(ids_[p]) < labels.size(),
            "KdTree::retag: labels too short");
    point_tag_[p] = labels[static_cast<std::size_t>(ids_[p])];
  }
  node_tag_.assign(nodes_.size(), kMixedTag);
  (void)retag_node(root_, labels);
}

std::int32_t KdTree::retag_node(std::int32_t node,
                                const std::vector<std::int32_t>& labels) {
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  std::int32_t tag;
  if (n.axis < 0) {
    tag = point_tag_[n.begin];
    for (std::uint32_t p = n.begin + 1; p < n.end; ++p) {
      if (point_tag_[p] != tag) {
        tag = kMixedTag;
        break;
      }
    }
  } else {
    const std::int32_t lt = retag_node(n.left, labels);
    const std::int32_t rt = retag_node(n.right, labels);
    tag = (lt == rt) ? lt : kMixedTag;
  }
  node_tag_[static_cast<std::size_t>(node)] = tag;
  return tag;
}

std::size_t KdTree::resident_bytes() const {
  return ids_.capacity() * sizeof(std::int32_t) +
         nodes_.capacity() * sizeof(Node) +
         boxes_.capacity() * sizeof(double) +
         point_tag_.capacity() * sizeof(std::int32_t) +
         node_tag_.capacity() * sizeof(std::int32_t);
}

}  // namespace hfc
