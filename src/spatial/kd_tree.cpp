#include "spatial/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "obs/metrics.h"
#include "util/require.h"

namespace hfc {

namespace {

/// Lexicographic (distance, id) — the order every tie resolves under.
[[nodiscard]] inline bool hit_less(const SpatialHit& a, const SpatialHit& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;
}

}  // namespace

KdTree::KdTree(const std::vector<Point>& coords,
               std::vector<std::int32_t> ids)
    : coords_(&coords), ids_(std::move(ids)) {
  require(!coords.empty(), "KdTree: empty coordinate set");
  dim_ = coords.front().size();
  require(dim_ >= 1, "KdTree: zero-dimensional points");
  if (ids_.empty()) {
    ids_.reserve(coords.size());
    for (std::size_t i = 0; i < coords.size(); ++i) {
      ids_.push_back(static_cast<std::int32_t>(i));
    }
  }
  for (const std::int32_t id : ids_) {
    require(id >= 0 && static_cast<std::size_t>(id) < coords.size() &&
                coords[static_cast<std::size_t>(id)].size() == dim_,
            "KdTree: bad point id or dimension");
  }
  require(!ids_.empty(), "KdTree: empty id subset");
  nodes_.reserve(2 * ids_.size() / kLeafSize + 2);
  root_ = build_range(ids_, nodes_, boxes_,
                      0, static_cast<std::uint32_t>(ids_.size()));
}

std::int32_t KdTree::build_range(std::vector<std::int32_t>& ids,
                                 std::vector<Node>& nodes,
                                 std::vector<double>& boxes,
                                 std::uint32_t begin,
                                 std::uint32_t end) const {
  const std::int32_t me = static_cast<std::int32_t>(nodes.size());
  nodes.push_back(Node{begin, end, -1, -1, -1, 0.0});
  boxes.resize(boxes.size() + 2 * dim_);
  const auto at = [this, &ids](std::uint32_t pos) -> const Point& {
    return (*coords_)[static_cast<std::size_t>(ids[pos])];
  };
  // Exact bounding box of the subtree's points.
  const std::size_t box = static_cast<std::size_t>(me) * 2 * dim_;
  for (std::size_t d = 0; d < dim_; ++d) {
    boxes[box + d] = at(begin)[d];
    boxes[box + dim_ + d] = at(begin)[d];
  }
  for (std::uint32_t p = begin + 1; p < end; ++p) {
    for (std::size_t d = 0; d < dim_; ++d) {
      boxes[box + d] = std::min(boxes[box + d], at(p)[d]);
      boxes[box + dim_ + d] = std::max(boxes[box + dim_ + d], at(p)[d]);
    }
  }
  if (end - begin <= kLeafSize) return me;

  // Split on the widest axis at the (coordinate, id)-median; the id
  // tie-break makes nth_element's two sides deterministic sets and
  // guarantees progress even when every coordinate is identical.
  std::size_t axis = 0;
  double widest = boxes[box + dim_] - boxes[box];
  for (std::size_t d = 1; d < dim_; ++d) {
    const double extent = boxes[box + dim_ + d] - boxes[box + d];
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
  std::nth_element(ids.begin() + begin, ids.begin() + mid,
                   ids.begin() + end, cmp);
  nodes[static_cast<std::size_t>(me)].axis = static_cast<std::int32_t>(axis);
  nodes[static_cast<std::size_t>(me)].split =
      (*coords_)[static_cast<std::size_t>(ids[mid])][axis];
  const std::int32_t left = build_range(ids, nodes, boxes, begin, mid);
  const std::int32_t right = build_range(ids, nodes, boxes, mid, end);
  nodes[static_cast<std::size_t>(me)].left = left;
  nodes[static_cast<std::size_t>(me)].right = right;
  return me;
}

double KdTree::box_distance(std::int32_t node, const Point& q) const {
  // Structurally identical accumulation to euclidean(): per-axis excess
  // in axis order, squared, summed, rooted — so the computed bound never
  // exceeds the computed distance of any point inside the box.
  const std::size_t box = static_cast<std::size_t>(node) * 2 * dim_;
  double sum = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    double excess = 0.0;
    if (q[d] < boxes_[box + d]) {
      excess = boxes_[box + d] - q[d];
    } else if (q[d] > boxes_[box + dim_ + d]) {
      excess = q[d] - boxes_[box + dim_ + d];
    }
    sum += excess * excess;
  }
  return std::sqrt(sum);
}

void KdTree::search(std::int32_t node, const Point& q,
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

SpatialHit KdTree::nearest(const Point& q, double bound, QueryStats& stats,
                           SpatialFilter accept, const void* ctx) const {
  require(q.size() == dim_, "KdTree::nearest: dimension mismatch");
  SpatialHit best;
  best.dist = bound;
  best.id = std::numeric_limits<std::int32_t>::max();  // any real id wins ties
  search(root_, q, kAnyLabel, accept, ctx, best, stats);
  if (best.id == std::numeric_limits<std::int32_t>::max()) return SpatialHit{};
  return best;
}

SpatialHit KdTree::nearest_foreign(const Point& q, std::int32_t label,
                                   double bound, QueryStats& stats) const {
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

std::vector<SpatialHit> KdTree::k_nearest(const Point& q, std::size_t k,
                                          QueryStats& stats,
                                          SpatialFilter accept,
                                          const void* ctx) const {
  require(q.size() == dim_, "KdTree::k_nearest: dimension mismatch");
  if (k == 0) return {};
  // Max-heap of the best k (distance, id) pairs; the heap front is the
  // current k-th best, the pruning bound once the heap is full.
  std::vector<SpatialHit> heap;
  heap.reserve(k);
  std::vector<std::int32_t> stack{root_};
  while (!stack.empty()) {
    const std::int32_t node = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    ++stats.nodes_visited;
    if (heap.size() == k && box_distance(node, q) > heap.front().dist) {
      continue;
    }
    if (n.axis < 0) {
      for (std::uint32_t p = n.begin; p < n.end; ++p) {
        const std::int32_t id = ids_[p];
        if (accept != nullptr && !accept(id, ctx)) continue;
        ++stats.point_evals;
        const SpatialHit cand{id, euclidean(q, point(p))};
        if (heap.size() < k) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end(), hit_less);
        } else if (hit_less(cand, heap.front())) {
          std::pop_heap(heap.begin(), heap.end(), hit_less);
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end(), hit_less);
        }
      }
      continue;
    }
    // Nearer half on top of the stack so it is explored first.
    const bool left_first = q[static_cast<std::size_t>(n.axis)] <= n.split;
    stack.push_back(left_first ? n.right : n.left);
    stack.push_back(left_first ? n.left : n.right);
  }
  std::sort(heap.begin(), heap.end(), hit_less);
  return heap;
}

std::vector<std::int32_t> KdTree::range(const Point& q, double radius,
                                        QueryStats& stats) const {
  require(q.size() == dim_, "KdTree::range: dimension mismatch");
  std::vector<std::int32_t> out;
  std::vector<std::int32_t> stack{root_};
  while (!stack.empty()) {
    const std::int32_t node = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    ++stats.nodes_visited;
    if (box_distance(node, q) > radius) continue;
    if (n.axis < 0) {
      for (std::uint32_t p = n.begin; p < n.end; ++p) {
        ++stats.point_evals;
        if (euclidean(q, point(p)) <= radius) out.push_back(ids_[p]);
      }
      continue;
    }
    stack.push_back(n.left);
    stack.push_back(n.right);
  }
  std::sort(out.begin(), out.end());
  return out;
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

void KdTree::fold_updates(const std::vector<std::int32_t>& adds,
                          const std::vector<std::int32_t>& removes) {
  for (const std::int32_t id : adds) {
    require(id >= 0 && static_cast<std::size_t>(id) < coords_->size() &&
                (*coords_)[static_cast<std::size_t>(id)].size() == dim_,
            "KdTree::fold_updates: bad point id or dimension");
  }
  const std::size_t old_n = ids_.size();
  require(removes.size() <= old_n, "KdTree::fold_updates: too many removes");
  const std::size_t new_n = old_n - removes.size() + adds.size();
  require(new_n > 0, "KdTree::fold_updates: the fold would empty the tree");
  if (adds.empty() && removes.empty()) return;

  // Locate tombstoned positions in one scan; per-subtree dead counts are
  // prefix differences because subtree id ranges are contiguous.
  std::unordered_set<std::int32_t> dead(removes.begin(), removes.end());
  std::vector<std::uint32_t> dead_prefix(old_n + 1, 0);
  for (std::size_t p = 0; p < old_n; ++p) {
    dead_prefix[p + 1] =
        dead_prefix[p] + (dead.find(ids_[p]) != dead.end() ? 1u : 0u);
  }
  require(dead_prefix[old_n] == removes.size(),
          "KdTree::fold_updates: remove id not indexed (or duplicated)");

  // Route every add down the existing split planes; each increments the
  // counts along its path and lands in exactly one leaf.
  std::vector<std::uint32_t> add_count(nodes_.size(), 0);
  std::vector<std::vector<std::int32_t>> leaf_adds(nodes_.size());
  for (const std::int32_t id : adds) {
    const Point& pt = (*coords_)[static_cast<std::size_t>(id)];
    std::int32_t node = root_;
    while (true) {
      ++add_count[static_cast<std::size_t>(node)];
      const Node& n = nodes_[static_cast<std::size_t>(node)];
      if (n.axis < 0) {
        leaf_adds[static_cast<std::size_t>(node)].push_back(id);
        break;
      }
      node = pt[static_cast<std::size_t>(n.axis)] < n.split ? n.left : n.right;
    }
  }

  FoldScratch s;
  s.dead_prefix = &dead_prefix;
  s.add_count = &add_count;
  s.leaf_adds = &leaf_adds;
  s.ids.reserve(new_n);
  s.nodes.reserve(nodes_.size() + 2 * adds.size() / kLeafSize + 2);
  const std::int32_t new_root = fold_emit(root_, s);

  ids_ = std::move(s.ids);
  nodes_ = std::move(s.nodes);
  boxes_ = std::move(s.boxes);
  root_ = new_root;
  // Component tags are positional; they are meaningless after the fold
  // and must be re-established by retag() before nearest_foreign.
  point_tag_.clear();
  node_tag_.clear();
  obs::MetricsRegistry::global()
      .counter("spatial.fold_points_rebuilt")
      .add(s.points_rebuilt);
}

std::int32_t KdTree::fold_emit(std::int32_t old_node, FoldScratch& s) const {
  const Node& n = nodes_[static_cast<std::size_t>(old_node)];
  const std::vector<std::uint32_t>& dead_prefix = *s.dead_prefix;
  const std::vector<std::uint32_t>& add_count = *s.add_count;
  const std::uint32_t size = n.end - n.begin;
  const std::uint32_t dead_cnt = dead_prefix[n.end] - dead_prefix[n.begin];
  const std::uint32_t added = add_count[static_cast<std::size_t>(old_node)];
  const std::uint32_t changes = dead_cnt + added;
  const auto new_begin = static_cast<std::uint32_t>(s.ids.size());

  if (changes == 0) {
    // Untouched subtree: ids, nodes and boxes copy verbatim, shifted to
    // the subtree's new position. No distance work at all.
    for (std::uint32_t p = n.begin; p < n.end; ++p) s.ids.push_back(ids_[p]);
    return fold_copy(old_node,
                     static_cast<std::int64_t>(new_begin) -
                         static_cast<std::int64_t>(n.begin),
                     s);
  }

  const auto child_size = [&](std::int32_t c) {
    const Node& cn = nodes_[static_cast<std::size_t>(c)];
    return (cn.end - cn.begin) - (dead_prefix[cn.end] - dead_prefix[cn.begin]) +
           add_count[static_cast<std::size_t>(c)];
  };
  // Scapegoat rule: a subtree absorbs changes up to a quarter of its
  // size (floor kLeafSize) before it is rebuilt; leaves with any change
  // rebuild outright, as does a node whose child would end up empty
  // (box_distance over an empty node is meaningless).
  const std::uint32_t budget = std::max(kLeafSize, size / 4);
  const bool rebuild = n.axis < 0 || changes > budget ||
                       child_size(n.left) == 0 || child_size(n.right) == 0;
  if (rebuild) {
    // Gather survivors in position order plus the routed adds, then run
    // the normal deterministic median build over the set.
    for (std::uint32_t p = n.begin; p < n.end; ++p) {
      if (dead_prefix[p + 1] == dead_prefix[p]) s.ids.push_back(ids_[p]);
    }
    gather_adds(old_node, s, s.ids);
    const auto new_end = static_cast<std::uint32_t>(s.ids.size());
    s.points_rebuilt += new_end - new_begin;
    return build_range(s.ids, s.nodes, s.boxes, new_begin, new_end);
  }

  // Keep this node: same split plane, children folded recursively, box =
  // the union of the children's boxes. The union *contains* every
  // subtree point, which is all the search correctness argument needs.
  const auto me = static_cast<std::int32_t>(s.nodes.size());
  s.nodes.push_back(Node{new_begin, new_begin + (size - dead_cnt + added), -1,
                         -1, n.axis, n.split});
  s.boxes.resize(s.boxes.size() + 2 * dim_);
  const std::int32_t nl = fold_emit(n.left, s);
  const std::int32_t nr = fold_emit(n.right, s);
  s.nodes[static_cast<std::size_t>(me)].left = nl;
  s.nodes[static_cast<std::size_t>(me)].right = nr;
  const std::size_t box = static_cast<std::size_t>(me) * 2 * dim_;
  const std::size_t lbox = static_cast<std::size_t>(nl) * 2 * dim_;
  const std::size_t rbox = static_cast<std::size_t>(nr) * 2 * dim_;
  for (std::size_t d = 0; d < dim_; ++d) {
    s.boxes[box + d] = std::min(s.boxes[lbox + d], s.boxes[rbox + d]);
    s.boxes[box + dim_ + d] =
        std::max(s.boxes[lbox + dim_ + d], s.boxes[rbox + dim_ + d]);
  }
  return me;
}

std::int32_t KdTree::fold_copy(std::int32_t old_node, std::int64_t pos_delta,
                               FoldScratch& s) const {
  const Node& n = nodes_[static_cast<std::size_t>(old_node)];
  const auto me = static_cast<std::int32_t>(s.nodes.size());
  s.nodes.push_back(Node{
      static_cast<std::uint32_t>(static_cast<std::int64_t>(n.begin) +
                                 pos_delta),
      static_cast<std::uint32_t>(static_cast<std::int64_t>(n.end) + pos_delta),
      -1, -1, n.axis, n.split});
  const auto src =
      static_cast<std::ptrdiff_t>(static_cast<std::size_t>(old_node) * 2 *
                                  dim_);
  s.boxes.insert(s.boxes.end(), boxes_.begin() + src,
                 boxes_.begin() + src + static_cast<std::ptrdiff_t>(2 * dim_));
  if (n.axis >= 0) {
    const std::int32_t nl = fold_copy(n.left, pos_delta, s);
    const std::int32_t nr = fold_copy(n.right, pos_delta, s);
    s.nodes[static_cast<std::size_t>(me)].left = nl;
    s.nodes[static_cast<std::size_t>(me)].right = nr;
  }
  return me;
}

void KdTree::gather_adds(std::int32_t old_node, FoldScratch& s,
                         std::vector<std::int32_t>& out) const {
  if ((*s.add_count)[static_cast<std::size_t>(old_node)] == 0) return;
  const Node& n = nodes_[static_cast<std::size_t>(old_node)];
  if (n.axis < 0) {
    const std::vector<std::int32_t>& la =
        (*s.leaf_adds)[static_cast<std::size_t>(old_node)];
    out.insert(out.end(), la.begin(), la.end());
    return;
  }
  gather_adds(n.left, s, out);
  gather_adds(n.right, s, out);
}

std::size_t KdTree::resident_bytes() const {
  return ids_.capacity() * sizeof(std::int32_t) +
         nodes_.capacity() * sizeof(Node) +
         boxes_.capacity() * sizeof(double) +
         point_tag_.capacity() * sizeof(std::int32_t) +
         node_tag_.capacity() * sizeof(std::int32_t);
}

}  // namespace hfc
