// Borůvka toolkit shared by the MST paths (internal to src/cluster).
//
// `euclidean_mst_spatial` (cluster/mst.cpp) and the group-local pipeline
// (cluster/group_pipeline.cpp) contract the same way: each round groups
// points by component, each component picks its cheapest outgoing edge
// under the canonical (d, a, b) order, and the picks are applied through
// one disjoint-set forest. This header holds those pieces once, plus the
// pruned global sweep both paths end with. Zahn's cut (cluster/zahn.cpp)
// reuses the disjoint-set forest for its components.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "cluster/mst.h"
#include "coords/point_set.h"
#include "spatial/spatial_index.h"

namespace hfc::boruvka {

/// Disjoint-set over node indices (path-halving, no ranks — union order
/// is deterministic anyway). Concurrent tasks may share one instance as
/// long as each touches only the slots of its own components, which the
/// group pipeline's cells guarantee.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// False when a and b were already connected.
  bool unite(std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// True when candidate (d, a, b) improves on the incumbent under the
/// canonical lexicographic edge order.
[[nodiscard]] inline bool edge_improves(double d, std::size_t a,
                                        std::size_t b, double bd,
                                        std::size_t ba, std::size_t bb) {
  if (d != bd) return d < bd;
  if (a != ba) return a < ba;
  return b < bb;
}

/// CSR member lists by component, regrouped every round. Items 0..m-1
/// are grouped by a component key in [0, key_range); components are
/// numbered in first-seen item order and each list is ascending (a
/// stable counting sort).
class ComponentGroups {
 public:
  explicit ComponentGroups(std::size_t key_range) : slot_(key_range, -1) {}

  template <class Key>
  void group(std::size_t m, const Key& key) {
    keys_.clear();
    comp_of_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t k = key(i);
      if (slot_[k] < 0) {
        slot_[k] = static_cast<std::int32_t>(keys_.size());
        keys_.push_back(k);
      }
      comp_of_[i] = static_cast<std::size_t>(slot_[k]);
    }
    for (const std::size_t k : keys_) slot_[k] = -1;
    offsets_.assign(keys_.size() + 1, 0);
    for (std::size_t i = 0; i < m; ++i) ++offsets_[comp_of_[i] + 1];
    for (std::size_t c = 0; c < keys_.size(); ++c) {
      offsets_[c + 1] += offsets_[c];
    }
    members_.resize(m);
    std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (std::size_t i = 0; i < m; ++i) members_[cursor[comp_of_[i]]++] = i;
  }

  [[nodiscard]] std::size_t count() const { return keys_.size(); }
  /// Component c's key.
  [[nodiscard]] std::size_t key(std::size_t c) const { return keys_[c]; }
  /// Component c's items, ascending.
  [[nodiscard]] std::span<const std::size_t> members(std::size_t c) const {
    return {members_.data() + offsets_[c], offsets_[c + 1] - offsets_[c]};
  }

 private:
  std::vector<std::int32_t> slot_;  ///< key -> component; -1 between rounds
  std::vector<std::size_t> keys_;
  std::vector<std::size_t> comp_of_;
  std::vector<std::size_t> offsets_;
  std::vector<std::size_t> members_;
};

/// A component's cheapest outgoing edge so far, canonical (a < b).
struct Candidate {
  double d = std::numeric_limits<double>::infinity();
  std::size_t a = 0;
  std::size_t b = 0;
};

/// The cheapest outgoing edge of the component `label`, whose members are
/// the point ids `id_of(item)` of `items`, queried on `index` (a KdTree
/// or a DynamicSpatialSet, retagged with the round's labels). Members
/// scan sequentially with a shrinking inclusive bound: once a candidate
/// is held, later members only need to beat its distance, so their k-d
/// descents cut off almost immediately. With `lb` (a per-point lower
/// bound on the nearest foreign distance) a member whose bound exceeds
/// the incumbent is skipped — its query would miss at that bound — and
/// counted in `skips`; ties (lb == incumbent) still query, so the (a, b)
/// tie-break is preserved, and every query tightens its member's bound.
template <class Index, class IdOf>
[[nodiscard]] Candidate cheapest_outgoing(const Index& index,
                                          const PointSet& points,
                                          std::int32_t label,
                                          std::span<const std::size_t> items,
                                          const IdOf& id_of, double* lb,
                                          QueryStats& stats,
                                          std::uint64_t& skips) {
  Candidate best;
  for (const std::size_t item : items) {
    const std::size_t v = id_of(item);
    if (lb != nullptr && lb[v] > best.d) {
      ++skips;
      continue;
    }
    const SpatialHit hit = index.nearest_foreign(points[v], label, best.d,
                                                 stats);
    if (!hit.found()) {
      if (lb != nullptr) lb[v] = std::max(lb[v], best.d);
      continue;
    }
    if (lb != nullptr) lb[v] = hit.dist;
    const auto u = static_cast<std::size_t>(hit.id);
    const std::size_t a = std::min(v, u);
    const std::size_t b = std::max(v, u);
    if (edge_improves(hit.dist, a, b, best.d, best.a, best.b)) {
      best = Candidate{hit.dist, a, b};
    }
  }
  return best;
}

/// Work the global sweep did, for the caller's counters.
struct SweepStats {
  QueryStats queries;
  std::uint64_t lb_skips = 0;
};

/// The pruned global sweep (DESIGN.md §13): merge the forest held in `uf`
/// — whose edges are already in `edges` — until it spans every point.
/// Each round tags a k-d tree over all points with the current
/// components and finds every component's cheapest_outgoing edge, in
/// parallel across components; `lb` (null, or n lower bounds — the group
/// pipeline's finish, DESIGN.md §14) is passed through. `caller` names
/// the failing path in error messages.
void global_sweep(const PointSet& points, UnionFind& uf, double* lb,
                  std::vector<MstEdge>& edges, SweepStats& stats,
                  const char* caller);

}  // namespace hfc::boruvka
